package infogain

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// buildDefault returns the default 100×100 double-dot instrument and its
// analytic truth matrix.
func buildDefault(t testing.TB, n noise.Params, seed uint64) (*device.SimInstrument, csd.Window, virtualgate.Mat2) {
	t.Helper()
	spec := device.DoubleDotSpec{Noise: n, Seed: seed}
	inst, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	truth, err := virtualgate.FromSlopes(spec.SteepSlope, spec.ShallowSlope)
	if err != nil {
		t.Fatal(err)
	}
	return inst, win, truth
}

func matErr(got, want virtualgate.Mat2) float64 {
	return math.Max(math.Abs(got.A12()-want.A12()), math.Abs(got.A21()-want.A21()))
}

func TestExtractNoiseless(t *testing.T) {
	inst, win, truth := buildDefault(t, noise.Params{}, 1)
	src := csd.PixelSource{Src: inst, Win: win}
	res, err := Extract(src, win, Config{})
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if e := matErr(res.Matrix, truth); e > 0.01 {
		t.Errorf("matrix error %.4f > 0.01 (steep=%.3f shallow=%.4f)", e, res.SteepSlope, res.ShallowSlope)
	}
	probes := inst.Stats().UniqueProbes
	if probes > 200 {
		t.Errorf("used %d probes, want ≤ 200", probes)
	}
	if res.Steep.EntryCI > DefaultTargetCI || res.Shallow.EntryCI > DefaultTargetCI {
		t.Errorf("stopping rule violated: CI steep=%.4f shallow=%.4f target=%.4f",
			res.Steep.EntryCI, res.Shallow.EntryCI, DefaultTargetCI)
	}
	t.Logf("probes=%d (seed=%d active=%d) err=%.5f CI=(%.4f, %.4f)",
		probes, res.SeedProbes, res.ActiveProbes, matErr(res.Matrix, truth),
		res.Steep.EntryCI, res.Shallow.EntryCI)
}

func TestExtractNoisy(t *testing.T) {
	n := noise.Params{WhiteSigma: 0.01, PinkAmp: 0.012, PinkN: 12}
	for seed := uint64(1); seed <= 5; seed++ {
		inst, win, truth := buildDefault(t, n, seed)
		src := csd.PixelSource{Src: inst, Win: win}
		res, err := Extract(src, win, Config{})
		if err != nil {
			t.Fatalf("seed %d: Extract: %v", seed, err)
		}
		e := matErr(res.Matrix, truth)
		probes := inst.Stats().UniqueProbes
		if e > 0.02 {
			t.Errorf("seed %d: matrix error %.4f > 0.02", seed, e)
		}
		if probes > 300 {
			t.Errorf("seed %d: used %d probes, want ≤ 300", seed, probes)
		}
	}
}

// TestExtractGeometries sweeps line geometries across the physically
// plausible range: the scheduler has no knowledge of where the lines sit.
func TestExtractGeometries(t *testing.T) {
	n := noise.Params{WhiteSigma: 0.01, PinkAmp: 0.012, PinkN: 12}
	cases := []device.DoubleDotSpec{
		{SteepSlope: -4, ShallowSlope: -0.25, CrossXFrac: 0.55, CrossYFrac: 0.5},
		{SteepSlope: -12, ShallowSlope: -0.08, CrossXFrac: 0.75, CrossYFrac: 0.7},
		{SteepSlope: -6, ShallowSlope: -0.18, CrossXFrac: 0.6, CrossYFrac: 0.72},
		{SteepSlope: -9, ShallowSlope: -0.1, CrossXFrac: 0.72, CrossYFrac: 0.55},
	}
	for i, spec := range cases {
		spec.Noise = n
		spec.Seed = uint64(i + 1)
		inst, win, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		truth, err := virtualgate.FromSlopes(spec.SteepSlope, spec.ShallowSlope)
		if err != nil {
			t.Fatal(err)
		}
		src := csd.PixelSource{Src: inst, Win: win}
		res, err := Extract(src, win, Config{})
		if err != nil {
			t.Errorf("case %d: Extract: %v", i, err)
			continue
		}
		e := matErr(res.Matrix, truth)
		probes := inst.Stats().UniqueProbes
		t.Logf("case %d: probes=%d err=%.5f", i, probes, e)
		if e > 0.025 {
			t.Errorf("case %d: matrix error %.4f > 0.025", i, e)
		}
	}
}

// TestExtractDeterministic pins the replay contract at the package level:
// two extractions over identically spec'd instruments are bit-identical.
func TestExtractDeterministic(t *testing.T) {
	n := noise.Params{WhiteSigma: 0.015, PinkAmp: 0.015, PinkN: 12}
	run := func() (*Result, int) {
		inst, win, _ := buildDefault(t, n, 7)
		src := csd.PixelSource{Src: inst, Win: win}
		res, err := Extract(src, win, Config{})
		if err != nil {
			t.Fatalf("Extract: %v", err)
		}
		return res, inst.Stats().UniqueProbes
	}
	a, pa := run()
	b, pb := run()
	if pa != pb {
		t.Fatalf("probe counts differ: %d vs %d", pa, pb)
	}
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	if bits(a.SteepSlope) != bits(b.SteepSlope) || bits(a.ShallowSlope) != bits(b.ShallowSlope) ||
		bits(a.Matrix.A12()) != bits(b.Matrix.A12()) || bits(a.Matrix.A21()) != bits(b.Matrix.A21()) ||
		bits(a.Knee.X) != bits(b.Knee.X) || bits(a.Knee.Y) != bits(b.Knee.Y) {
		t.Fatalf("results differ bitwise:\n%+v\n%+v", a, b)
	}
}

// TestExtractPrior checks that a warm prior (e.g. a surrogate twin's fit)
// cuts the probes spent rediscovering known geometry.
func TestExtractPrior(t *testing.T) {
	n := noise.Params{WhiteSigma: 0.01, PinkAmp: 0.012, PinkN: 12}
	inst, win, truth := buildDefault(t, n, 3)
	src := csd.PixelSource{Src: inst, Win: win}
	cold, err := Extract(src, win, Config{})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	coldProbes := inst.Stats().UniqueProbes

	inst2, win2, _ := buildDefault(t, n, 3)
	src2 := csd.PixelSource{Src: inst2, Win: win2}
	v1, v2 := cold.TriplePointVoltage(win)
	warm, err := Extract(src2, win2, Config{Prior: &Prior{
		SteepSlope: cold.SteepSlope, ShallowSlope: cold.ShallowSlope,
		TripleV1: v1, TripleV2: v2,
	}})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	warmProbes := inst2.Stats().UniqueProbes
	t.Logf("cold=%d warm=%d probes", coldProbes, warmProbes)
	if warmProbes >= coldProbes {
		t.Errorf("warm prior did not reduce probes: cold=%d warm=%d", coldProbes, warmProbes)
	}
	if e := matErr(warm.Matrix, truth); e > 0.02 {
		t.Errorf("warm matrix error %.4f > 0.02", e)
	}
}

// TestExtractNoConverge: an unreachable CI target exhausts the budget and
// reports ErrNoConverge — the ladder-escalation contract.
func TestExtractNoConverge(t *testing.T) {
	inst, win, _ := buildDefault(t, noise.Params{}, 1)
	src := csd.PixelSource{Src: inst, Win: win}
	_, err := Extract(src, win, Config{TargetCI: 1e-6, MaxProbes: 150})
	if !errors.Is(err, ErrNoConverge) {
		t.Fatalf("got %v, want ErrNoConverge", err)
	}
}

// TestExtractSeedFailure: a featureless window cannot bracket any line.
func TestExtractSeedFailure(t *testing.T) {
	g := grid.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			g.Set(x, y, 0.5)
		}
	}
	win := csd.NewSquareWindow(0, 0, 32, 64)
	_, err := Extract(csd.GridSource{G: g}, win, Config{})
	if !errors.Is(err, ErrSeed) {
		t.Fatalf("got %v, want ErrSeed", err)
	}
}

// TestPosteriorUpdateAllocs pins the hot-path contract in the style of
// TestMultiMemoHitAllocs: once the scheduler is built, a posterior update
// (label fold-in, renormalisation, prefix rebuild) and a full candidate
// scoring pass allocate nothing.
func TestPosteriorUpdateAllocs(t *testing.T) {
	inst, win, _ := buildDefault(t, noise.Params{}, 1)
	src := csd.PixelSource{Src: inst, Win: win}
	cfg := Config{}
	cfg.fillDefaults()
	s := NewScheduler(win, cfg)
	if err := s.Seed(src); err != nil {
		t.Fatal(err)
	}
	p := &s.steep
	u, v, _, ok := p.bestCandidate(s)
	if !ok {
		t.Fatal("no candidate after seeding")
	}
	x, y := p.cell(u, v)
	c := src.Current(x, y)
	bright := s.bright(p, x, y, c)
	allocs := testing.AllocsPerRun(100, func() {
		p.apply(u, v, bright)
		p.rebuild()
		p.bestCandidate(s)
	})
	if allocs != 0 {
		t.Fatalf("posterior update allocates %.1f objects/op, want 0", allocs)
	}
}

// TestObserveRefineAllocs: the full observe path (candidate selection,
// probe, history append, prefix rebuild, grid refinement) stays
// allocation-free thanks to the pre-sized history and scratch buffers.
// The source is a pre-acquired grid so the instrument's own memoisation
// does not pollute the measurement.
func TestObserveRefineAllocs(t *testing.T) {
	inst, win, _ := buildDefault(t, noise.Params{}, 1)
	g, err := csd.Acquire(inst, win)
	if err != nil {
		t.Fatal(err)
	}
	src := csd.GridSource{G: g}
	cfg := Config{}
	cfg.fillDefaults()
	s := NewScheduler(win, cfg)
	if err := s.Seed(src); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(60, func() {
		if !s.stepLine(src, &s.steep) {
			s.stepLine(src, &s.shallow)
		}
	})
	if allocs != 0 {
		t.Fatalf("observe step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestNewSchedulerBoundsHistory: the probe history is sized by the window,
// not the budget — active probes never revisit a cell — so a huge
// MaxProbes costs no more memory than the window allows.
func TestNewSchedulerBoundsHistory(t *testing.T) {
	_, win, _ := buildDefault(t, noise.Params{}, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewScheduler(win, Config{MaxProbes: 1 << 40})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewScheduler with MaxProbes 1<<40 allocated %d bytes, want < 1 MiB", got)
	}
	if want := win.Cols*win.Rows + 128; cap(s.steep.hu) != want || cap(s.shallow.hb) != want {
		t.Fatalf("history capacity %d/%d, want %d", cap(s.steep.hu), cap(s.shallow.hb), want)
	}
}

// raceEnabled is set in race builds, where sync.Pool drops items at random
// and allocation counts differ.
var raceEnabled bool

// TestExtractWarmAllocs: once an extraction has finished, the next one
// runs on its scheduler's posterior grids, prefix sums, history and
// bitmask, and allocates only its Result.
func TestExtractWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled schedulers at random")
	}
	inst, win, _ := buildDefault(t, noise.PresetStandard(), 1)
	g, err := csd.Acquire(inst, win)
	if err != nil {
		t.Fatal(err)
	}
	src := csd.GridSource{G: g}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Extract(src, win, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a warm extraction allocates %.0f objects, want 1", allocs)
	}
}

// TestSchedulerReuseMatchesNew: a scheduler that has run an extraction,
// reset for a window of another size — with a prior, and with a probe
// budget larger than the window — holds exactly the state NewScheduler
// builds: every field, every buffer's contents and the history's capacity.
// Extract on recycled schedulers returns the Result a fresh one does.
func TestSchedulerReuseMatchesNew(t *testing.T) {
	grids := map[int]csd.GridSource{}
	wins := map[int]csd.Window{}
	for _, px := range []int{100, 40} {
		spec := device.DoubleDotSpec{Pixels: px, Noise: noise.PresetStandard(), Seed: 3}
		inst, win, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		g, err := csd.Acquire(inst, win)
		if err != nil {
			t.Fatal(err)
		}
		grids[px], wins[px] = csd.GridSource{G: g}, win
	}
	cfgs := []Config{{}, {MaxProbes: 1 << 20, GridOff: 30, Bends: []float64{0.02, -0.02}},
		{Prior: &Prior{SteepSlope: -7, ShallowSlope: -0.12, TripleV1: 30, TripleV2: 28}}}
	for i, cfg := range cfgs {
		for _, px := range []int{40, 100} {
			used := NewScheduler(wins[140-px], cfgs[(i+1)%len(cfgs)])
			if err := used.Seed(grids[140-px]); err == nil {
				_ = used.Run(grids[140-px])
			}
			used.reset(wins[px], cfg)
			fresh := NewScheduler(wins[px], cfg)
			if !reflect.DeepEqual(used, fresh) {
				t.Fatalf("config %d, %d px: a reset scheduler differs from a new one", i, px)
			}
			for _, pair := range [][2]*posterior{{&used.steep, &fresh.steep}, {&used.shallow, &fresh.shallow}} {
				u, f := pair[0], pair[1]
				if cap(u.hu) != cap(f.hu) || cap(u.hv) != cap(f.hv) || cap(u.hb) != cap(f.hb) {
					t.Fatalf("config %d, %d px: %s history capacity %d, want %d", i, px, u.name, cap(u.hu), cap(f.hu))
				}
			}
		}
	}
	compared := 0
	for _, cfg := range cfgs {
		fresh := NewScheduler(wins[100], cfg)
		var ref *Result
		wantErr := fresh.Seed(grids[100])
		if wantErr == nil {
			if wantErr = fresh.Run(grids[100]); wantErr == nil {
				ref, wantErr = fresh.Finish()
			}
		}
		for round := 0; round < 3; round++ {
			if _, err := Extract(grids[40], wins[40], cfg); err != nil && !errors.Is(err, ErrNoConverge) {
				t.Fatal(err)
			}
			got, err := Extract(grids[100], wins[100], cfg)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("round %d: err %v, fresh scheduler %v", round, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("round %d: recycled %+v, fresh %+v", round, got, ref)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no extraction converged; the Result comparison never ran")
	}
}
