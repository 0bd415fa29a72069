package device

import (
	"sync"
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
	dev := testArrayDevice(t, 4)
	inst := NewMultiInstrument(dev, DefaultDwell, 1)
	v := []float64{10, 10, 10, 10}
	inst.GetCurrentN(v)
	inst.GetCurrentN(v) // memoised
	v[0] = 20
	inst.GetCurrentN(v)
	s := inst.Stats()
	if s.UniqueProbes != 2 || s.RawCalls != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.Virtual != 2*DefaultDwell {
		t.Errorf("virtual = %v", s.Virtual)
	}
}

func TestMultiInstrumentQuantisationKey(t *testing.T) {
	dev := testArrayDevice(t, 3)
	inst := NewMultiInstrument(dev, time.Millisecond, 1)
	a := inst.GetCurrentN([]float64{10.1, 20.2, 30.3})
	b := inst.GetCurrentN([]float64{10.9, 20.8, 30.7}) // same 1 mV cells
	if a != b {
		t.Error("same-cell probe not memoised")
	}
	c := inst.GetCurrentN([]float64{11.1, 20.2, 30.3})
	_ = c
	if got := inst.Stats().UniqueProbes; got != 2 {
		t.Errorf("unique probes = %d, want 2", got)
	}
}

func TestPairViewRoutesVoltages(t *testing.T) {
	dev := testArrayDevice(t, 4)
	inst := NewMultiInstrument(dev, 0, 0)
	base := []float64{1, 2, 3, 4}
	pv, err := NewPairView(inst, 1, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	got := pv.GetCurrent(50, 60)
	want := dev.CurrentAt([]float64{1, 50, 60, 4}, 0)
	if got != want {
		t.Errorf("pair view current = %v, want %v", got, want)
	}
	// Base must not be mutated.
	if base[1] != 2 || base[2] != 3 {
		t.Errorf("base mutated: %v", base)
	}
}

func TestPairViewValidation(t *testing.T) {
	dev := testArrayDevice(t, 3)
	inst := NewMultiInstrument(dev, 0, 0)
	if _, err := NewPairView(inst, 0, 0, []float64{0, 0, 0}); err == nil {
		t.Error("accepted identical gates")
	}
	if _, err := NewPairView(inst, 0, 5, []float64{0, 0, 0}); err == nil {
		t.Error("accepted out-of-range gate")
	}
	if _, err := NewPairView(inst, 0, 1, []float64{0}); err == nil {
		t.Error("accepted short base vector")
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

// TestPairViewAttribution pins the per-view probe accounting: concurrent
// pair extractions sharing one MultiInstrument must not double-count each
// other's probes, and the per-view sums must reconcile exactly with the
// instrument's global accounting.
func TestPairViewAttribution(t *testing.T) {
	dev := testArrayDevice(t, 4)
	m := NewMultiInstrument(dev, time.Millisecond, 0.5)
	base := make([]float64, 4)
	views := make([]*PairView, 3)
	for i := range views {
		pv, err := NewPairView(m, i, i+1, base)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = pv
	}
	var wg sync.WaitGroup
	for _, pv := range views {
		wg.Add(1)
		go func(pv *PairView) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				// Each view walks its own voltage trajectory; some points
				// repeat (memo hits must not count as fresh dwells).
				pv.GetCurrent(float64(k%50), float64(k%25))
			}
		}(pv)
	}
	wg.Wait()

	var viewUnique, viewRaw int
	var viewVirtual time.Duration
	for i, pv := range views {
		st := pv.Stats()
		if st.RawCalls != 200 {
			t.Errorf("view %d RawCalls = %d, want its own 200 (not the shared total)", i, st.RawCalls)
		}
		if st.UniqueProbes <= 0 || st.UniqueProbes > 200 {
			t.Errorf("view %d UniqueProbes = %d out of range", i, st.UniqueProbes)
		}
		viewUnique += st.UniqueProbes
		viewRaw += st.RawCalls
		viewVirtual += st.Virtual
	}
	global := m.Stats()
	if viewRaw != global.RawCalls {
		t.Errorf("view raw-call sum %d != instrument %d", viewRaw, global.RawCalls)
	}
	if viewUnique != global.UniqueProbes {
		t.Errorf("view unique-probe sum %d != instrument %d (double counting)", viewUnique, global.UniqueProbes)
	}
	if viewVirtual != global.Virtual {
		t.Errorf("view dwell sum %v != instrument %v", viewVirtual, global.Virtual)
	}

	// ResetStats on one view clears only that view's attribution.
	views[0].ResetStats()
	if got := views[0].Stats(); got != (Stats{}) {
		t.Errorf("view reset left %+v", got)
	}
	if m.Stats() != global {
		t.Error("view reset mutated the shared instrument's accounting")
	}
	if views[1].Stats().RawCalls != 200 {
		t.Error("view reset bled into a sibling view")
	}
}

// TestMultiInstrumentAdvance opens a fresh measurement epoch: the memo is
// dropped (re-probes dwell again) but cumulative accounting is kept.
func TestMultiInstrumentAdvance(t *testing.T) {
	dev := testArrayDevice(t, 3)
	m := NewMultiInstrument(dev, time.Millisecond, 0.5)
	v := []float64{1, 2, 3}
	m.GetCurrentN(v)
	if _, fresh := m.ProbeN(v); fresh {
		t.Fatal("repeat probe in the same epoch dwelled again")
	}
	m.Advance(time.Second)
	st := m.Stats()
	if st.UniqueProbes != 1 {
		t.Fatalf("advance changed probe count: %d", st.UniqueProbes)
	}
	if st.Virtual != time.Second+time.Millisecond {
		t.Fatalf("advance lost clock time: %v", st.Virtual)
	}
	if _, fresh := m.ProbeN(v); !fresh {
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
