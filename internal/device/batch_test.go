package device

import (
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/physics"
	"github.com/fastvg/fastvg/internal/xrand"
)

// The batch contract under test: every batched method must return
// bit-identical currents and identical Stats to the equivalent sequence of
// scalar GetCurrent calls, on noiseless and noisy devices alike — noise
// realisations are fixed by the probing schedule, so parity proves the
// batch path charges the virtual clock in exactly the scalar order.

// testSpec returns a spec whose noise params exercise every temporal
// process (white, pink, RTN, drift, jumps).
func testSpec(noisy bool) *DoubleDotSpec {
	s := &DoubleDotSpec{Seed: 42}
	if noisy {
		s.Noise = noise.Params{
			WhiteSigma: 0.02, PinkAmp: 0.015, PinkN: 8,
			RTNAmp: 0.05, RTNRate: 0.4,
			DriftLinear: 1e-4, DriftAmp: 0.01, DriftPeriod: 30,
			JumpAmp: 0.05, JumpInterval: 20,
		}
	}
	return s
}

// buildPair builds two instruments from the same spec: identical devices
// with identical noise realisations, one probed scalar and one batched.
func buildPair(t *testing.T, noisy bool) (scalar, batch *SimInstrument, win csd.Window) {
	t.Helper()
	a, win, err := testSpec(noisy).Build()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := testSpec(noisy).Build()
	if err != nil {
		t.Fatal(err)
	}
	return a, b, win
}

func statsEqual(t *testing.T, context string, a, b Stats) {
	t.Helper()
	if a != b {
		t.Fatalf("%s: stats diverge: scalar %+v, batch %+v", context, a, b)
	}
}

// TestCurrentRowMatchesScalarRaster rasters the full window row by row:
// scalar per-pixel probes vs CurrentRow, noiseless and noisy.
func TestCurrentRowMatchesScalarRaster(t *testing.T) {
	for _, noisy := range []bool{false, true} {
		scalar, batch, win := buildPair(t, noisy)
		v1s := make([]float64, win.Cols)
		for x := range v1s {
			v1s[x] = win.V1At(x)
		}
		got := make([]float64, win.Cols)
		for y := 0; y < win.Rows; y++ {
			v2 := win.V2At(y)
			batch.CurrentRow(v2, v1s, got)
			for x := 0; x < win.Cols; x++ {
				want := scalar.GetCurrent(v1s[x], v2)
				if got[x] != want {
					t.Fatalf("noisy=%v pixel (%d,%d): batch %v != scalar %v", noisy, x, y, got[x], want)
				}
			}
			statsEqual(t, "row", scalar.Stats(), batch.Stats())
		}
		if p := batch.Stats().UniqueProbes; p != win.Cols*win.Rows {
			t.Fatalf("noisy=%v: raster measured %d unique probes, want %d", noisy, p, win.Cols*win.Rows)
		}
	}
}

// TestProbeManyMatchesScalarSparse replays a sparse, repetitive probe
// sequence — the memo-hit-heavy workload of the fast extraction's sweeps —
// through ProbeMany and compares against scalar probing, noiseless and
// noisy.
func TestProbeManyMatchesScalarSparse(t *testing.T) {
	for _, noisy := range []bool{false, true} {
		scalar, batch, win := buildPair(t, noisy)
		rng := xrand.New(7)
		const n = 4000
		v1s := make([]float64, n)
		v2s := make([]float64, n)
		for i := range v1s {
			// Cluster probes so re-measured cells (memo hits) are common,
			// including probes one pixel outside the window.
			v1s[i] = win.V1At(rng.Intn(win.Cols+2) - 1)
			v2s[i] = win.V2At(rng.Intn(win.Rows+2) - 1)
		}
		got := make([]float64, n)
		batch.ProbeMany(v1s, v2s, got)
		for i := range v1s {
			if want := scalar.GetCurrent(v1s[i], v2s[i]); got[i] != want {
				t.Fatalf("noisy=%v probe %d at (%v,%v): batch %v != scalar %v",
					noisy, i, v1s[i], v2s[i], got[i], want)
			}
		}
		statsEqual(t, "sparse", scalar.Stats(), batch.Stats())
		if s := batch.Stats(); s.UniqueProbes >= s.RawCalls {
			t.Fatalf("noisy=%v: sparse schedule produced no memo hits (unique %d, raw %d) — not exercising the hit path",
				noisy, s.UniqueProbes, s.RawCalls)
		}
	}
}

// TestAcquireGridMatchesScalarAcquire: the full-grid acquisition,
// csd.Acquire, must reproduce a scalar raster bit for bit — grid, Stats
// and memo — on a noisy device, including after earlier sparse probing
// left memoised cells behind.
func TestAcquireGridMatchesScalarAcquire(t *testing.T) {
	scalar, batch, win := buildPair(t, true)

	// Pre-probe a sparse set so the raster hits memoised cells.
	for i := 0; i < 50; i++ {
		v1 := win.V1At(i * 2 % win.Cols)
		v2 := win.V2At(i * 3 % win.Rows)
		scalar.GetCurrent(v1, v2)
		batch.GetCurrent(v1, v2)
	}

	want, err := scalarAcquire(scalar, win)
	if err != nil {
		t.Fatal(err)
	}
	got, err := csd.Acquire(batch, win)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("csd.Acquire differs from scalar raster")
	}
	statsEqual(t, "acquire", scalar.Stats(), batch.Stats())
	sc, bc := scalar.ProbedCells(), batch.ProbedCells()
	if len(sc) != len(bc) {
		t.Fatalf("probed cells %d != %d", len(bc), len(sc))
	}
	for i := range sc {
		if sc[i] != bc[i] {
			t.Fatalf("probed cell %d: %v != %v", i, bc[i], sc[i])
		}
	}
}

// scalarAcquire is the pre-batch acquisition loop: one GetCurrent per
// pixel, bottom row first — the reference the batch paths must match.
func scalarAcquire(inst *SimInstrument, win csd.Window) (*grid.Grid, error) {
	g := grid.New(win.Cols, win.Rows)
	for y := 0; y < win.Rows; y++ {
		v2 := win.V2At(y)
		for x := 0; x < win.Cols; x++ {
			g.Set(x, y, inst.GetCurrent(win.V1At(x), v2))
		}
	}
	return g, nil
}

// TestDatasetBatchParity: the replay instrument's row and grid paths must
// match its scalar path — values, probed map and Stats.
func TestDatasetBatchParity(t *testing.T) {
	g := gridOfSize(32)
	win := csd.NewSquareWindow(0, 0, 32, 32)
	mk := func() *DatasetInstrument {
		inst, err := NewDatasetInstrument(g, win, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}

	scalar, rowed, grided := mk(), mk(), mk()

	// Sparse prefix so the full acquisition sees pre-probed pixels.
	rng := xrand.New(3)
	for i := 0; i < 40; i++ {
		v1, v2 := float64(rng.Intn(34))-1, float64(rng.Intn(34))-1
		a := scalar.GetCurrent(v1, v2)
		if b := rowed.GetCurrent(v1, v2); b != a {
			t.Fatalf("probe %d: %v != %v", i, b, a)
		}
		grided.GetCurrent(v1, v2)
	}

	v1s := make([]float64, win.Cols)
	for x := range v1s {
		v1s[x] = win.V1At(x)
	}
	out := make([]float64, win.Cols)
	want, err := grided.AcquireGrid(win, 0)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < win.Rows; y++ {
		v2 := win.V2At(y)
		rowed.CurrentRow(v2, v1s, out)
		for x := 0; x < win.Cols; x++ {
			a := scalar.GetCurrent(v1s[x], v2)
			if out[x] != a {
				t.Fatalf("row path pixel (%d,%d): %v != %v", x, y, out[x], a)
			}
			if want.At(x, y) != a {
				t.Fatalf("grid path pixel (%d,%d): %v != %v", x, y, want.At(x, y), a)
			}
		}
	}
	if scalar.Stats() != rowed.Stats() || scalar.Stats() != grided.Stats() {
		t.Fatalf("stats diverge: scalar %+v, row %+v, grid %+v",
			scalar.Stats(), rowed.Stats(), grided.Stats())
	}
	if len(grided.ProbeMap()) != len(scalar.ProbeMap()) {
		t.Fatal("probe maps diverge")
	}
}

// TestProbedCellsCache: repeated calls between probes return the cached
// slice without rebuilding; a new probe invalidates it; a memo-hit probe
// does not.
func TestProbedCellsCache(t *testing.T) {
	d := testDoubleDot(t)
	inst := NewSimInstrument(d, time.Millisecond, 1, 1)
	inst.GetCurrent(3, 4)
	inst.GetCurrent(1, 2)
	first := inst.ProbedCells()
	if len(first) != 2 {
		t.Fatalf("got %d cells, want 2", len(first))
	}
	if second := inst.ProbedCells(); &second[0] != &first[0] {
		t.Error("repeated ProbedCells rebuilt the cache with no intervening probe")
	}
	inst.GetCurrent(3, 4) // memo hit: nothing new measured
	if third := inst.ProbedCells(); &third[0] != &first[0] {
		t.Error("memo-hit probe invalidated the cache")
	}
	inst.GetCurrent(9, 9)
	fourth := inst.ProbedCells()
	if len(fourth) != 3 {
		t.Fatalf("after new probe got %d cells, want 3", len(fourth))
	}
	// Sorted by (v2 cell, v1 cell), as before the cache existed.
	for i := 1; i < len(fourth); i++ {
		a, b := fourth[i-1], fourth[i]
		if a[1] > b[1] || (a[1] == b[1] && a[0] >= b[0]) {
			t.Fatalf("cells not sorted: %v before %v", a, b)
		}
	}
}

// TestResetStatsKeepsParity: resetting must fully clear the memo (warm
// buffers are an implementation detail) so a re-raster re-measures
// everything.
func TestResetStatsKeepsParity(t *testing.T) {
	scalar, batch, win := buildPair(t, true)
	if _, err := csd.Acquire(batch, win); err != nil {
		t.Fatal(err)
	}
	batch.ResetStats()
	if s := batch.Stats(); s != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", s)
	}
	if cells := batch.ProbedCells(); len(cells) != 0 {
		t.Fatalf("memo not cleared: %d cells", len(cells))
	}
	// After reset the instrument replays the same schedule as a fresh
	// scalar instrument does — the noise processes have advanced, so
	// compare against a scalar instrument probed through the same history.
	for y := 0; y < win.Rows; y++ {
		v2 := win.V2At(y)
		for x := 0; x < win.Cols; x++ {
			scalar.GetCurrent(win.V1At(x), v2)
		}
	}
	scalar.ResetStats()
	v1s := make([]float64, win.Cols)
	for x := range v1s {
		v1s[x] = win.V1At(x)
	}
	out := make([]float64, win.Cols)
	for y := 0; y < win.Rows; y++ {
		v2 := win.V2At(y)
		batch.CurrentRow(v2, v1s, out)
		for x := 0; x < win.Cols; x++ {
			if want := scalar.GetCurrent(v1s[x], v2); out[x] != want {
				t.Fatalf("post-reset pixel (%d,%d): %v != %v", x, y, out[x], want)
			}
		}
	}
	statsEqual(t, "post-reset", scalar.Stats(), batch.Stats())
}

// TestFastPathMatchesGenericCurrentAt: the fixed-arity table path must be
// bit-identical to the generic brute-force path on the same device. The
// generic path is forced by an oversized MaxN (no table) — the physics is
// unchanged because higher occupations never win at these voltages.
func TestFastPathMatchesGenericCurrentAt(t *testing.T) {
	fast := testDoubleDot(t)
	if fast.fast() == nil || !fast.Sens.CanFast2() {
		t.Fatal("reference device must take the fast path")
	}
	for i := 0; i < 2000; i++ {
		v1 := float64(i%100) * 0.73
		v2 := float64(i/100) * 2.1
		n1, n2 := fast.Phys.GroundState(v1, v2)
		want := fast.Sens.Current([]float64{v1, v2}, []int{n1, n2})
		if got := fast.CurrentAt(v1, v2, 0); got != want {
			t.Fatalf("CurrentAt(%v,%v): fast %v != generic %v", v1, v2, got, want)
		}
	}
}

// TestFastPathRebuildsOnParamChange: mutating the physics after probing
// must not serve stale ground states.
func TestFastPathRebuildsOnParamChange(t *testing.T) {
	d := testDoubleDot(t)
	v1, v2 := 30.0, 30.0
	before := d.CurrentAt(v1, v2, 0)
	mutated := *d.Phys
	mutated.Offset[0] += 2.5 // shift dot 1's lines
	d.Phys = &mutated
	n1, n2 := d.Phys.GroundState(v1, v2)
	want := d.Sens.Current([]float64{v1, v2}, []int{n1, n2})
	if got := d.CurrentAt(v1, v2, 0); got != want {
		t.Fatalf("after mutation: got %v, want %v (stale table?)", got, want)
	}
	_ = before
}

// TestGroundTableMatchesBruteForce sweeps voltages across several random
// parameter sets.
func TestGroundTableMatchesBruteForce(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 20; trial++ {
		p := &physics.DoubleDot{
			EC:  [2]float64{2 + 4*rng.Float64(), 2 + 4*rng.Float64()},
			ECm: rng.Float64(),
			Alpha: [2][2]float64{
				{0.05 + 0.1*rng.Float64(), 0.02 * rng.Float64()},
				{0.02 * rng.Float64(), 0.05 + 0.1*rng.Float64()},
			},
			Offset: [2]float64{-4 * rng.Float64(), -4 * rng.Float64()},
			MaxN:   1 + rng.Intn(5),
		}
		if err := p.Validate(); err != nil {
			continue // rare non-dominant draw
		}
		tab := p.Table()
		if tab == nil {
			t.Fatalf("trial %d: no table for MaxN=%d", trial, p.MaxN)
		}
		for i := 0; i < 500; i++ {
			v1 := 120 * rng.Float64()
			v2 := 120 * rng.Float64()
			wn1, wn2 := p.GroundState(v1, v2)
			gn1, gn2 := tab.Ground(p.Mu(0, v1, v2), p.Mu(1, v1, v2))
			if gn1 != wn1 || gn2 != wn2 {
				t.Fatalf("trial %d at (%v,%v): table (%d,%d) != brute (%d,%d)",
					trial, v1, v2, gn1, gn2, wn1, wn2)
			}
		}
	}
}
