package device

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/noise"
)

// simProbe is one step of a probe schedule: a scalar probe, a row probe or
// a new memo epoch.
type simProbe struct {
	v1, v2 float64
	row    []float64 // CurrentRow's v1s when non-nil
	reset  bool
}

// runSchedule drives inst through the schedule and returns every value it
// read, followed by its Stats and ProbedCells after each epoch.
func runSchedule(inst *SimInstrument, sched []simProbe) (vals []float64, stats []Stats, cells [][][2]int64) {
	for _, p := range sched {
		switch {
		case p.reset:
			stats = append(stats, inst.Stats())
			cells = append(cells, slices.Clone(inst.ProbedCells()))
			inst.Advance(time.Second)
		case p.row != nil:
			out := make([]float64, len(p.row))
			inst.CurrentRow(p.v2, p.row, out)
			vals = append(vals, out...)
		default:
			vals = append(vals, inst.GetCurrent(p.v1, p.v2))
		}
	}
	stats = append(stats, inst.Stats())
	cells = append(cells, slices.Clone(inst.ProbedCells()))
	return vals, stats, cells
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSameRun fails unless two schedule runs read the same bits, Stats
// and ProbedCells.
func checkSameRun(t *testing.T, what string, av, bv []float64, as, bs []Stats, ac, bc [][][2]int64) {
	t.Helper()
	if !sameBits(av, bv) {
		t.Fatalf("%s: values differ", what)
	}
	if !slices.Equal(as, bs) {
		t.Fatalf("%s: Stats %+v, want %+v", what, as, bs)
	}
	if len(ac) != len(bc) {
		t.Fatalf("%s: %d ProbedCells snapshots, want %d", what, len(ac), len(bc))
	}
	for i := range ac {
		if !slices.Equal(ac[i], bc[i]) {
			t.Fatalf("%s: ProbedCells of epoch %d = %v, want %v", what, i, ac[i], bc[i])
		}
	}
}

// TestSizedMemoMatchesUnsized: a store sized for its window indexes the
// window's rows densely and keeps rows below and above it in the map. A
// schedule probing rows below, inside and above the window — and columns
// left and right of it — reads the same values, Stats and ProbedCells as an
// unsized store on an identical device, across epochs.
func TestSizedMemoMatchesUnsized(t *testing.T) {
	spec := DoubleDotSpec{Seed: 8, Pixels: 40, Noise: noise.PresetStandard()}
	sized, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	twin, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	unsized := NewSimInstrument(twin.Dev, twin.Dwell, twin.QuantV1, twin.QuantV2)
	if len(sized.memo.dense) != win.Rows || len(unsized.memo.dense) != 0 {
		t.Fatalf("dense rows: sized %d, unsized %d; want %d and 0", len(sized.memo.dense), len(unsized.memo.dense), win.Rows)
	}
	var sched []simProbe
	ys := []int{-7, -1, 0, 3, 17, win.Rows - 1, win.Rows, win.Rows + 9}
	xs := []int{-5, 0, 1, 12, win.Cols - 1, win.Cols, win.Cols + 70}
	at := func(x, y int) (float64, float64) {
		return win.V1Min + (float64(x)+0.5)*win.StepV1(), win.V2Min + (float64(y)+0.5)*win.StepV2()
	}
	for epoch := 0; epoch < 3; epoch++ {
		for i, y := range ys {
			for j, x := range xs {
				if (i+j+epoch)%3 == 0 {
					continue
				}
				v1, v2 := at(x, y)
				sched = append(sched, simProbe{v1: v1, v2: v2})
			}
			var row []float64
			for x := -3; x < win.Cols+3; x += 2 + epoch {
				v1, _ := at(x, y)
				row = append(row, v1)
			}
			_, v2 := at(0, y)
			sched = append(sched, simProbe{v2: v2, row: row})
		}
		// Revisit in reverse so rows change on every probe.
		for i := len(ys) - 1; i >= 0; i-- {
			v1, v2 := at(xs[i%len(xs)], ys[i])
			sched = append(sched, simProbe{v1: v1, v2: v2})
		}
		sched = append(sched, simProbe{reset: true})
	}
	sv, ss, sc := runSchedule(sized, sched)
	uv, us, uc := runSchedule(unsized, sched)
	checkSameRun(t, "sized vs unsized store", sv, uv, ss, us, sc, uc)
	if len(sized.memo.rows) == 0 {
		t.Fatal("no row outside the window reached the sized store's map")
	}
}

// TestReleaseGuard: a released instrument refuses every probe with a
// panic, and a second Release does nothing.
func TestReleaseGuard(t *testing.T) {
	mustPanic := func(what string, probe func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != errReleased {
				t.Fatalf("%s after Release: recovered %v, want %q", what, r, errReleased)
			}
		}()
		probe()
	}
	sim, win, err := (&DoubleDotSpec{Seed: 2}).Build()
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := win.V1At(4), win.V2At(5)
	sim.GetCurrent(v1, v2)
	sim.Release()
	sim.Release()
	mustPanic("SimInstrument.GetCurrent", func() { sim.GetCurrent(v1, v2) })
	mustPanic("SimInstrument.CurrentRow", func() { sim.CurrentRow(v2, []float64{v1}, make([]float64, 1)) })
	if cells := sim.ProbedCells(); len(cells) != 0 {
		t.Fatalf("released instrument lists cells %v", cells)
	}

	spec := ChainSpec{Seed: 2}
	pv, pwin, err := spec.BuildPair(0)
	if err != nil {
		t.Fatal(err)
	}
	pv.GetCurrent(pwin.V1At(4), pwin.V2At(5))
	pv.GetCurrent(1e4, pwin.V2At(5)) // beyond the row's reach: the far map
	pv.M.Release()
	pv.M.Release()
	mustPanic("PairView.GetCurrent", func() { pv.GetCurrent(pwin.V1At(4), pwin.V2At(5)) })
}

// TestReleasedRowsReadFresh: rows handed back by released instruments —
// including rows stamped after an epoch wrap — serve the next instruments
// exactly as fresh rows would: an instrument built after the releases reads
// the same values, Stats and ProbedCells as one built before them, on its
// first epochs and again after its own epoch wraps. Both instrument kinds
// are covered: a spec-built sim and a chain pair's plane.
func TestReleasedRowsReadFresh(t *testing.T) {
	spec := DoubleDotSpec{Seed: 4, Pixels: 48, Noise: noise.PresetStandard()}
	spec.FillDefaults()
	win := spec.Window()
	var sched []simProbe
	for epoch := 0; epoch < 300; epoch++ {
		if epoch < 3 || epoch >= 255 {
			for y := epoch % 5; y < win.Rows; y += 5 {
				for x := (y + epoch) % 3; x < win.Cols; x += 3 {
					sched = append(sched, simProbe{v1: win.V1At(x), v2: win.V2At(y)})
				}
			}
		}
		sched = append(sched, simProbe{reset: true})
	}
	build := func() *SimInstrument {
		inst, _, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	ref := build()
	rv, rs, rc := runSchedule(ref, sched)

	// Fill rows, wrap the epoch (stamps now read 1 again), fill once more
	// and release: the pool holds rows whose stamps match a fresh store's
	// first epoch.
	for k := 0; k < 3; k++ {
		old := build()
		for i := 0; i < 255*(k+1); i++ {
			old.Advance(time.Second)
		}
		if _, err := csd.Acquire(old, win); err != nil {
			t.Fatal(err)
		}
		old.Release()
	}
	got := build()
	gv, gs, gc := runSchedule(got, sched)
	checkSameRun(t, "sim on released rows", gv, rv, gs, rs, gc, rc)
	got.Release()

	cspec := ChainSpec{Seed: 4, Noise: noise.PresetStandard()}
	pair := func() (*PairView, csd.Window) {
		pv, pwin, err := cspec.BuildPair(1)
		if err != nil {
			t.Fatal(err)
		}
		return pv, pwin
	}
	runPair := func(pv *PairView, pwin csd.Window) (vals []float64, stats []Stats) {
		for epoch := 0; epoch < 260; epoch++ {
			if epoch < 2 || epoch >= 255 {
				for y := epoch % 4; y < pwin.Rows; y += 4 {
					for x := y % 3; x < pwin.Cols; x += 3 {
						vals = append(vals, pv.GetCurrent(pwin.V1At(x), pwin.V2At(y)))
					}
				}
				stats = append(stats, pv.Stats(), pv.M.Stats())
			}
			pv.M.Advance(time.Second)
		}
		return vals, stats
	}
	pref, pwin := pair()
	pv0, ps0 := runPair(pref, pwin)
	for k := 0; k < 2; k++ {
		old, owin := pair()
		for i := 0; i < 255; i++ {
			old.M.Advance(time.Second)
		}
		for y := 0; y < owin.Rows; y++ {
			for x := 0; x < owin.Cols; x++ {
				old.GetCurrent(owin.V1At(x), owin.V2At(y))
			}
		}
		old.M.Release()
	}
	pgot, _ := pair()
	pv1, ps1 := runPair(pgot, pwin)
	if !sameBits(pv1, pv0) || !slices.Equal(ps1, ps0) {
		t.Fatal("pair view on released plane rows reads differently from a fresh one")
	}
}

// TestConcurrentRelease: instruments built, probed and released on
// several goroutines at once share one row pool, and each still reads
// exactly what a serial run of its schedule read.
func TestConcurrentRelease(t *testing.T) {
	spec := DoubleDotSpec{Seed: 9, Pixels: 40, Noise: noise.PresetStandard()}
	spec.FillDefaults()
	win := spec.Window()
	var sched []simProbe
	for epoch := 0; epoch < 3; epoch++ {
		for y := epoch; y < win.Rows; y += 3 {
			for x := y % 4; x < win.Cols; x += 4 {
				sched = append(sched, simProbe{v1: win.V1At(x), v2: win.V2At(y)})
			}
		}
		sched = append(sched, simProbe{reset: true})
	}
	ref, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rv, rs, rc := runSchedule(ref, sched)
	cspec := ChainSpec{Seed: 9, Noise: noise.PresetStandard(), Pixels: 40}
	pairRun := func() []float64 {
		pv, pwin, err := cspec.BuildPair(0)
		if err != nil {
			t.Error(err)
			return nil
		}
		var vals []float64
		for y := 0; y < pwin.Rows; y += 2 {
			for x := y % 3; x < pwin.Cols; x += 3 {
				vals = append(vals, pv.GetCurrent(pwin.V1At(x), pwin.V2At(y)))
			}
		}
		pv.M.Release()
		return vals
	}
	pref := pairRun()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				inst, _, err := spec.Build()
				if err != nil {
					t.Error(err)
					return
				}
				gv, gs, gc := runSchedule(inst, sched)
				inst.Release()
				if !sameBits(gv, rv) || !slices.Equal(gs, rs) || len(gc) != len(rc) || !slices.Equal(gc[len(gc)-1], rc[len(rc)-1]) {
					t.Error("a sim on pooled rows read differently from the serial run")
					return
				}
				if !sameBits(pairRun(), pref) {
					t.Error("a pair view on pooled rows read differently from the serial run")
					return
				}
			}
		}()
	}
	wg.Wait()
}
