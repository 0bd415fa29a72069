package device

import (
	"math"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/physics"
	"github.com/fastvg/fastvg/internal/sensor"
)

func testDoubleDot(t *testing.T) *DoubleDot {
	t.Helper()
	p, err := physics.FromGeometry(physics.Geometry{
		SteepSlope:   -8,
		ShallowSlope: -0.12,
		SteepPoint:   [2]float64{70, 0},
		ShallowPoint: [2]float64{0, 65},
		EC1:          4, EC2: 4, ECm: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &DoubleDot{Phys: p, Sens: sensor.DefaultDoubleDot(0.3, 0.3, 200)}
}

func TestCurrentDropsAcrossSteepLine(t *testing.T) {
	d := testDoubleDot(t)
	v2 := 10.0
	v1 := d.Phys.SteepLine().V1At(v2)
	before := d.CurrentAt(v1-1, v2, 0)
	after := d.CurrentAt(v1+1, v2, 0)
	if after >= before {
		t.Errorf("current across steep line: %v -> %v, want a drop", before, after)
	}
}

func TestSimInstrumentDwellAccounting(t *testing.T) {
	d := testDoubleDot(t)
	inst := NewSimInstrument(d, DefaultDwell, 1, 1)
	inst.GetCurrent(10, 10)
	inst.GetCurrent(20, 10)
	s := inst.Stats()
	if s.UniqueProbes != 2 || s.RawCalls != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Virtual != 100*time.Millisecond {
		t.Errorf("virtual time = %v, want 100ms", s.Virtual)
	}
}

func TestSimInstrumentMemoisation(t *testing.T) {
	d := testDoubleDot(t)
	inst := NewSimInstrument(d, DefaultDwell, 1, 1)
	a := inst.GetCurrent(10.2, 10.7)
	b := inst.GetCurrent(10.4, 10.9) // same 1 mV pixel
	if a != b {
		t.Errorf("memoised re-probe returned %v, first %v", b, a)
	}
	s := inst.Stats()
	if s.UniqueProbes != 1 {
		t.Errorf("unique probes = %d, want 1", s.UniqueProbes)
	}
	if s.RawCalls != 2 {
		t.Errorf("raw calls = %d, want 2", s.RawCalls)
	}
}

func TestSimInstrumentNoMemoWithoutQuant(t *testing.T) {
	d := testDoubleDot(t)
	d.Noise = noise.NewWhite(0.1, 1)
	inst := NewSimInstrument(d, DefaultDwell, 0, 0)
	a := inst.GetCurrent(10, 10)
	b := inst.GetCurrent(10, 10)
	if a == b {
		t.Error("unmemoised noisy re-probe returned identical value (suspicious)")
	}
	if got := inst.Stats().UniqueProbes; got != 2 {
		t.Errorf("unique probes = %d, want 2", got)
	}
}

func TestSimInstrumentResetStats(t *testing.T) {
	d := testDoubleDot(t)
	inst := NewSimInstrument(d, DefaultDwell, 1, 1)
	inst.GetCurrent(5, 5)
	inst.ResetStats()
	if s := inst.Stats(); s.UniqueProbes != 0 || s.Virtual != 0 || s.RawCalls != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestNoiseSampledAtVirtualTime(t *testing.T) {
	d := testDoubleDot(t)
	d.Noise = &noise.Drift{Linear: 1} // +1 nA per virtual second
	inst := NewSimInstrument(d, time.Second, 1, 1)
	a := inst.GetCurrent(10, 10) // t = 1 s
	b := inst.GetCurrent(50, 10) // t = 2 s; same (0,0) charge region
	driftDiff := (b - a) - (d.CurrentAt(50, 10, 0) - d.CurrentAt(10, 10, 0))
	if math.Abs(driftDiff-1.0) > 1e-9 {
		t.Errorf("drift between consecutive probes = %v, want 1.0", driftDiff)
	}
}

func TestDatasetInstrument(t *testing.T) {
	g := grid.New(4, 4)
	g.Apply(func(x, y int, _ float64) float64 { return float64(x + 10*y) })
	w := csd.NewSquareWindow(0, 0, 4, 4) // δ = 1 mV
	inst, err := NewDatasetInstrument(g, w, DefaultDwell)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.GetCurrent(w.V1At(2), w.V2At(3)); got != 32 {
		t.Errorf("dataset read = %v, want 32", got)
	}
	inst.GetCurrent(w.V1At(2), w.V2At(3)) // repeat: no new dwell
	s := inst.Stats()
	if s.UniqueProbes != 1 || s.RawCalls != 2 || s.Virtual != DefaultDwell {
		t.Errorf("stats = %+v", s)
	}
	if !inst.Probed(2, 3) || inst.Probed(0, 0) {
		t.Error("probed map wrong")
	}
	if pm := inst.ProbeMap(); len(pm) != 1 || pm[0] != (grid.Point{X: 2, Y: 3}) {
		t.Errorf("probe map = %v", pm)
	}
}

func TestDatasetInstrumentClampsOutside(t *testing.T) {
	g := grid.New(3, 3)
	g.Set(2, 2, 7)
	w := csd.NewSquareWindow(0, 0, 3, 3)
	inst, err := NewDatasetInstrument(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.GetCurrent(100, 100); got != 7 {
		t.Errorf("clamped read = %v, want 7", got)
	}
}

func TestDatasetInstrumentValidation(t *testing.T) {
	g := grid.New(3, 3)
	if _, err := NewDatasetInstrument(nil, csd.NewSquareWindow(0, 0, 3, 3), 0); err == nil {
		t.Error("accepted nil grid")
	}
	if _, err := NewDatasetInstrument(g, csd.NewSquareWindow(0, 0, 4, 4), 0); err == nil {
		t.Error("accepted size mismatch")
	}
}

func TestAcquireThroughSimInstrument(t *testing.T) {
	d := testDoubleDot(t)
	w := csd.NewSquareWindow(0, 0, 100, 32)
	inst := NewSimInstrument(d, DefaultDwell, w.StepV1(), w.StepV2())
	g, err := csd.Acquire(inst, w)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.Stats()
	if s.UniqueProbes != 32*32 {
		t.Errorf("full raster probed %d unique points, want 1024", s.UniqueProbes)
	}
	if s.Virtual != 1024*DefaultDwell {
		t.Errorf("virtual time = %v, want %v", s.Virtual, 1024*DefaultDwell)
	}
	// The acquired CSD must show four distinct charge regions: compare
	// currents at representative corners.
	lo, hi := g.MinMax()
	if hi-lo <= 0 {
		t.Error("acquired CSD is flat")
	}
}

func TestAdvanceIdleClock(t *testing.T) {
	d := testDoubleDot(t)
	d.Noise = noise.NewWhite(0.05, 7)
	inst := NewSimInstrument(d, DefaultDwell, 0.5, 0.5)
	v0 := inst.GetCurrent(10, 10)
	st := inst.Stats()
	if st.UniqueProbes != 1 {
		t.Fatalf("probes = %d", st.UniqueProbes)
	}
	// A memo hit costs nothing and returns the recorded value.
	if v := inst.GetCurrent(10, 10); v != v0 {
		t.Fatalf("memo hit changed value: %v != %v", v, v0)
	}
	inst.Advance(time.Hour)
	st2 := inst.Stats()
	if st2.Virtual != st.Virtual+time.Hour {
		t.Errorf("Virtual = %v, want %v", st2.Virtual, st.Virtual+time.Hour)
	}
	if st2.UniqueProbes != st.UniqueProbes {
		t.Errorf("Advance changed probe accounting: %d -> %d", st.UniqueProbes, st2.UniqueProbes)
	}
	// After the idle epoch, re-requesting the configuration is a fresh
	// measurement: a new dwell is charged and fresh noise is sampled.
	_ = inst.GetCurrent(10, 10)
	st3 := inst.Stats()
	if st3.UniqueProbes != st2.UniqueProbes+1 {
		t.Errorf("post-Advance probe not re-measured: probes %d -> %d", st2.UniqueProbes, st3.UniqueProbes)
	}
	// Advance(<=0) is a no-op.
	inst.Advance(0)
	inst.Advance(-time.Second)
	if inst.Stats() != st3 {
		t.Error("non-positive Advance changed state")
	}
}

func TestLeverDriftMovesLines(t *testing.T) {
	// A pure shear on v2 moves the steep transition's measured position; the
	// same probe sequence on an undrifted twin does not move.
	mk := func(drift *LeverDrift) *SimInstrument {
		d := testDoubleDot(t)
		d.Drift = drift
		return NewSimInstrument(d, DefaultDwell, 0, 0) // no memo: re-measure freely
	}
	crossing := func(inst *SimInstrument, v2 float64) float64 {
		// Walk v1 and return the position of the largest drop.
		best, bestPos := 0.0, math.NaN()
		prev := math.NaN()
		for v1 := 60.0; v1 <= 80; v1 += 0.25 {
			c := inst.GetCurrent(v1, v2)
			if !math.IsNaN(prev) && prev-c > best {
				best, bestPos = prev-c, v1
			}
			prev = c
		}
		return bestPos
	}
	steady := mk(nil)
	p0 := crossing(steady, 10)
	steady.Advance(24 * time.Hour)
	if p1 := crossing(steady, 10); p1 != p0 {
		t.Fatalf("undrifted line moved: %v -> %v", p0, p1)
	}

	drifting := mk(&LeverDrift{Offset1: &noise.Drift{Linear: 1e-4}})
	q0 := crossing(drifting, 10)
	drifting.Advance(24 * time.Hour)
	q1 := crossing(drifting, 10)
	// 1e-4 mV/s × 86400 s ≈ 8.6 mV of line shift.
	if shift := math.Abs(q1 - q0); shift < 4 {
		t.Errorf("drifted line moved only %.2f mV over a day, want several mV", shift)
	}
}

func TestLeverDriftSpecBuild(t *testing.T) {
	spec := DoubleDotSpec{
		Seed: 3,
		LeverDrift: &LeverDriftSpec{
			Shear21: noise.Params{DriftLinear: 2e-6, PinkAmp: 0.01},
			Offset2: noise.Params{JumpAmp: 0.8, JumpInterval: 7200},
		},
	}
	inst, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if inst.Dev.Drift == nil || inst.Dev.Drift.Shear21 == nil || inst.Dev.Drift.Offset2 == nil {
		t.Fatal("configured drift channels not built")
	}
	if inst.Dev.Drift.Shear12 != nil || inst.Dev.Drift.Offset1 != nil {
		t.Error("silent drift channels should stay nil")
	}
	// Equal specs give identical drift realisations.
	specB := spec
	instB, _, err := specB.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ti := float64(i) * 977
		a := inst.Dev.Drift.Shear21.Sample(ti)
		b := instB.Dev.Drift.Shear21.Sample(ti)
		if a != b {
			t.Fatalf("drift realisation differs at t=%v: %v != %v", ti, a, b)
		}
	}
	// An all-zero LeverDriftSpec builds no drift at all.
	none := DoubleDotSpec{LeverDrift: &LeverDriftSpec{}}
	instN, _, err := none.Build()
	if err != nil {
		t.Fatal(err)
	}
	if instN.Dev.Drift != nil {
		t.Error("zero LeverDriftSpec built a drift")
	}
}

func TestDriftedBatchMatchesScalar(t *testing.T) {
	// With drift present the batch contract must still be bit-identical to
	// the scalar sequence — it falls back to the scalar path internally.
	mk := func() *SimInstrument {
		d := testDoubleDot(t)
		d.Noise = noise.NewPinkBath(0.01, 8, 0.01, 10, 11)
		d.Drift = &LeverDrift{
			Shear21: noise.NewPinkBath(0.02, 6, 1e-4, 1, 5),
			Offset1: &noise.Drift{Linear: 1e-5},
		}
		return NewSimInstrument(d, DefaultDwell, 0.5, 0.5)
	}
	win := csd.NewSquareWindow(0, 0, 20, 40)
	scalar := mk()
	var want []float64
	for y := 0; y < win.Rows; y++ {
		for x := 0; x < win.Cols; x++ {
			want = append(want, scalar.GetCurrent(win.V1At(x), win.V2At(y)))
		}
	}
	batch := mk()
	g, err := csd.Acquire(batch, win)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Data() {
		if v != want[i] {
			t.Fatalf("drifted csd.Acquire diverges from scalar at %d: %v != %v", i, v, want[i])
		}
	}
	if batch.Stats() != scalar.Stats() {
		t.Errorf("stats diverge: %+v != %+v", batch.Stats(), scalar.Stats())
	}

	rowBatch, rowScalar := mk(), mk()
	v1s := make([]float64, win.Cols)
	for x := range v1s {
		v1s[x] = win.V1At(x)
	}
	out := make([]float64, win.Cols)
	rowBatch.CurrentRow(win.V2At(3), v1s, out)
	for x, v1 := range v1s {
		if w := rowScalar.GetCurrent(v1, win.V2At(3)); out[x] != w {
			t.Fatalf("drifted CurrentRow diverges at %d: %v != %v", x, out[x], w)
		}
	}
}
