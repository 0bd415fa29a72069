package device

import (
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/physics"
	"github.com/fastvg/fastvg/internal/sensor"
)

func testArrayDevice(t testing.TB, n int) *ArrayDevice {
	t.Helper()
	phys, err := physics.UniformChain(n, 4, 0.3, 0.08, 0.12, 0.3, -2.0)
	if err != nil {
		t.Fatal(err)
	}
	sens := sensor.Params{
		Base: 0.05, PeakAmp: 1, PeakPos: 1.6, PeakWidth: 1,
		Kappa:  make([]float64, n),
		Lambda: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		sens.Kappa[i] = 0.002
		sens.Lambda[i] = 0.3
	}
	return &ArrayDevice{Phys: phys, Sens: sens}
}

func TestMultiInstrumentAccounting(t *testing.T) {
	spec := ChainSpec{}
	pv, win, err := spec.BuildPair(1)
	if err != nil {
		t.Fatal(err)
	}
	pv.GetCurrent(win.V1At(10), win.V2At(10))
	pv.GetCurrent(win.V1At(10), win.V2At(10)) // memoised
	pv.GetCurrent(win.V1At(20), win.V2At(10))
	s := pv.Stats()
	if s.UniqueProbes != 2 || s.RawCalls != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.Virtual != 2*DefaultDwell {
		t.Errorf("virtual = %v", s.Virtual)
	}
	if s != pv.M.Stats() {
		t.Errorf("view stats %+v, instrument %+v", s, pv.M.Stats())
	}
}

func TestMultiInstrumentQuantisationKey(t *testing.T) {
	spec := ChainSpec{Dots: 3}
	pv, _, err := spec.BuildPair(0)
	if err != nil {
		t.Fatal(err)
	}
	q := pv.M.Quant
	a := pv.GetCurrent(30.1*q, 60.2*q)
	b := pv.GetCurrent(30.9*q, 60.8*q) // same cells
	if a != b {
		t.Error("same-cell probe not memoised")
	}
	pv.GetCurrent(31.1*q, 60.2*q)
	if got := pv.Stats().UniqueProbes; got != 2 {
		t.Errorf("unique probes = %d, want 2", got)
	}
}

// TestPairViewRoutesVoltages: a pair view sets its pair's two gates and
// holds every other gate at the 0 mV base, probe after probe.
func TestPairViewRoutesVoltages(t *testing.T) {
	spec := ChainSpec{}
	pv, _, err := spec.BuildPair(1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := spec.BuildPair(1)
	if err != nil {
		t.Fatal(err)
	}
	dwell := DefaultDwell.Seconds()
	if got, want := pv.GetCurrent(50, 60), ref.M.Dev.CurrentAt([]float64{0, 50, 60, 0}, dwell); got != want {
		t.Errorf("pair view current = %v, want %v", got, want)
	}
	if got, want := pv.GetCurrent(10, 20), ref.M.Dev.CurrentAt([]float64{0, 10, 20, 0}, 2*dwell); got != want {
		t.Errorf("second pair view current = %v, want %v", got, want)
	}
}

// TestPairViewValidation: BuildPair refuses pairs outside the chain and
// chains too short to have one.
func TestPairViewValidation(t *testing.T) {
	spec := ChainSpec{Dots: 3}
	for _, i := range []int{-1, 2} {
		if _, _, err := spec.BuildPair(i); err == nil {
			t.Errorf("accepted pair %d of a 3-dot chain", i)
		}
	}
	one := ChainSpec{Dots: 1}
	if _, _, err := one.BuildPair(0); err == nil {
		t.Error("accepted a 1-dot chain")
	}
}

func TestArrayCurrentDropsWhenDotLoads(t *testing.T) {
	dev := testArrayDevice(t, 4)
	lo := dev.CurrentAt([]float64{10, 10, 10, 10}, 0)
	hi := dev.CurrentAt([]float64{10, 80, 10, 10}, 0) // loads dot 1
	if hi >= lo {
		t.Errorf("current did not drop when dot loaded: %v -> %v", lo, hi)
	}
}

// TestMultiInstrumentAdvance opens a fresh measurement epoch: the memo is
// dropped (re-probes dwell again) but cumulative accounting is kept, and
// the view reports the instrument's clock.
func TestMultiInstrumentAdvance(t *testing.T) {
	spec := ChainSpec{Dots: 3}
	pv, win, err := spec.BuildPair(0)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := win.V1At(3), win.V2At(7)
	pv.GetCurrent(v1, v2)
	pv.GetCurrent(v1, v2)
	if got := pv.Stats().UniqueProbes; got != 1 {
		t.Fatalf("repeat probe in the same epoch dwelled again: %d fresh", got)
	}
	pv.Advance(time.Second)
	st := pv.Stats()
	if st.UniqueProbes != 1 {
		t.Fatalf("advance changed probe count: %d", st.UniqueProbes)
	}
	if st.Virtual != time.Second+DefaultDwell {
		t.Fatalf("advance lost clock time: %v", st.Virtual)
	}
	if st != pv.M.Stats() {
		t.Fatalf("view stats %+v, instrument %+v", st, pv.M.Stats())
	}
	pv.GetCurrent(v1, v2)
	if got := pv.Stats().UniqueProbes; got != 2 {
		t.Error("probe after Advance served a stale pre-epoch memo")
	}
}

// TestPairViewDrift: a pair-local LeverDrift bends the voltages the device
// sees — the mechanism that makes exactly one chain pair go stale.
func TestPairViewDrift(t *testing.T) {
	spec := ChainSpec{Dots: 3, PairDrift: []LeverDriftSpec{
		{Offset1: noise.Params{DriftAmp: 5, DriftPeriod: 10}},
	}}
	drifted, _, err := spec.BuildPair(0)
	if err != nil {
		t.Fatal(err)
	}
	clean := ChainSpec{Dots: 3}
	undrifted, _, err := clean.BuildPair(0)
	if err != nil {
		t.Fatal(err)
	}
	// Same probing schedule; the drift warp must change some currents.
	differs := false
	for k := 0; k < 40 && !differs; k++ {
		v1, v2 := float64(k), float64(40-k)
		if drifted.GetCurrent(v1, v2) != undrifted.GetCurrent(v1, v2) {
			differs = true
		}
	}
	if !differs {
		t.Error("pair drift never changed a measured current")
	}
	// Pair 1 has no drift entry: both specs must agree bit for bit there.
	p1a, _, err := spec.BuildPair(1)
	if err != nil {
		t.Fatal(err)
	}
	p1b, _, err := clean.BuildPair(1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 40; k++ {
		v1, v2 := float64(k), float64(40-k)
		if p1a.GetCurrent(v1, v2) != p1b.GetCurrent(v1, v2) {
			t.Fatal("driftless pair affected by a sibling pair's drift spec")
		}
	}
}

// TestChainSpecPairIndependence: BuildPair instruments share nothing — the
// same pair rebuilt probes bit-identically regardless of what other pairs
// measured, the planner's determinism foundation.
func TestChainSpecPairIndependence(t *testing.T) {
	spec := ChainSpec{Dots: 4, Noise: noise.Params{WhiteSigma: 0.02}, Seed: 11}
	probe := func(pv *PairView, n int) []float64 {
		out := make([]float64, n)
		for k := range out {
			out[k] = pv.GetCurrent(float64(k), float64(k%7))
		}
		return out
	}
	a, _, err := spec.BuildPair(1)
	if err != nil {
		t.Fatal(err)
	}
	ref := probe(a, 50)

	// Rebuild pair 1 after heavily probing pair 0 and pair 2: identical.
	b0, _, err := spec.BuildPair(0)
	if err != nil {
		t.Fatal(err)
	}
	probe(b0, 500)
	b, _, err := spec.BuildPair(1)
	if err != nil {
		t.Fatal(err)
	}
	got := probe(b, 50)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("pair 1 probe %d differs after sibling activity: %v != %v", i, got[i], ref[i])
		}
	}

	// Different pairs get different noise realisations.
	c, _, err := spec.BuildPair(2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	cg := probe(c, 50)
	for i := range ref {
		if ref[i] != cg[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("pairs 1 and 2 share a noise realisation")
	}
}

// TestChainSpecValidation covers the spec shape rules.
func TestChainSpecValidation(t *testing.T) {
	bad := []ChainSpec{
		{Dots: 1},
		{Dots: 3, CrossFrac: 1.5},
		{Dots: 3, PairDrift: make([]LeverDriftSpec, 5)},
	}
	for i, s := range bad {
		s.FillDefaults()
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, s)
		}
	}
	var s ChainSpec
	if _, _, err := s.BuildPair(0); err != nil {
		t.Errorf("zero spec with defaults rejected: %v", err)
	}
	if _, _, err := s.BuildPair(9); err == nil {
		t.Error("accepted out-of-range pair")
	}
}
