package device

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/xrand"
)

// mapMemoInstrument is MultiInstrument as it was before the row store:
// every configuration memoised in one map keyed by all N quantised cells,
// the pair's drift applied after the lookup at the fresh probe's time.
type mapMemoInstrument struct {
	dev   *ArrayDevice
	dwell time.Duration
	quant float64
	memo  map[string]float64
	stats Stats
}

func (m *mapMemoInstrument) probe(v []float64, g1, g2 int, drift *LeverDrift) (float64, bool) {
	m.stats.RawCalls++
	key := make([]byte, 8*len(v))
	for i, vi := range v {
		binary.LittleEndian.PutUint64(key[8*i:], uint64(int64(math.Floor(vi/m.quant))))
	}
	if val, ok := m.memo[string(key)]; ok {
		return val, false
	}
	m.stats.UniqueProbes++
	m.stats.Virtual += m.dwell
	t := m.stats.Virtual.Seconds()
	if drift != nil {
		v[g1], v[g2] = drift.Warp(v[g1], v[g2], t)
	}
	val := m.dev.CurrentAt(v, t)
	m.memo[string(key)] = val
	return val, true
}

// TestPairMemoMatchesMapMemo: BuildPair pairs of a noisy 5-dot chain, one
// with a lever drift and one without, answer exactly as a map memo over all
// N gate cells does — values bit for bit and Stats — wherever the row
// store keeps a cell. The schedule mixes probes in and around the pair
// window, probes 300–2,000 cells from zero along either gate, probes up to
// 1e6 mV out on both, repeats of those far cells within an epoch, epochs
// and stats resets.
func TestPairMemoMatchesMapMemo(t *testing.T) {
	spec := ChainSpec{Dots: 5, Noise: noise.PresetStandard(), Seed: 5, PairDrift: []LeverDriftSpec{{
		Offset1: noise.Params{DriftAmp: 0.5, DriftPeriod: 100},
		Shear21: noise.Params{PinkAmp: 0.01, PinkFMin: 0.001, PinkFMax: 1},
	}}}
	type pair struct {
		pv    *PairView
		g1    int
		drift *LeverDrift
		ref   *mapMemoInstrument
	}
	var pairs []pair
	for _, i := range []int{0, 2} { // pair 0 drifts, pair 2 does not
		pv, _, err := spec.BuildPair(i)
		if err != nil {
			t.Fatal(err)
		}
		twin, _, err := spec.BuildPair(i)
		if err != nil {
			t.Fatal(err)
		}
		var drift *LeverDrift
		if i < len(spec.PairDrift) {
			drift = spec.PairDrift[i].build(xrand.DeriveSeed(spec.Seed, pairSeedBase+i))
		}
		ref := &mapMemoInstrument{dev: twin.M.Dev, dwell: pv.M.Dwell, quant: pv.M.Quant, memo: map[string]float64{}}
		pairs = append(pairs, pair{pv: pv, g1: i, drift: drift, ref: ref})
	}
	win, q := spec.Window(), pairs[0].pv.M.Quant
	rng := xrand.New(3)
	sign := func() float64 {
		if rng.Intn(2) == 0 {
			return -1
		}
		return 1
	}
	far := make([][2]float64, 48)
	for k := range far {
		away := sign() * (300 + 1700*rng.Float64()) * q
		switch k % 3 {
		case 0:
			far[k] = [2]float64{away, win.V2At(rng.Intn(win.Rows))}
		case 1:
			far[k] = [2]float64{win.V1At(rng.Intn(win.Cols)), away}
		default:
			far[k] = [2]float64{sign() * 1e6 * rng.Float64(), sign() * 1e6 * rng.Float64()}
		}
	}
	volt := func() (v1, v2 float64, isFar bool) {
		if rng.Float64() < 0.15 {
			p := far[rng.Intn(len(far))]
			return p[0] + 0.4*q*rng.Float64(), p[1] + 0.4*q*rng.Float64(), true
		}
		x, y := rng.Intn(win.Cols+20)-10, rng.Intn(win.Rows+20)-10
		return win.V1At(x), win.V2At(y), false
	}
	farHits := make([]int, len(pairs))
	const ops = 24000
	for op := 0; op < ops; op++ {
		k := rng.Intn(len(pairs))
		p := pairs[k]
		switch r := rng.Float64(); {
		case r < 0.992:
			a, b, isFar := volt()
			got := p.pv.GetCurrent(a, b)
			v := make([]float64, spec.Dots)
			v[p.g1], v[p.g1+1] = a, b
			want, fresh := p.ref.probe(v, p.g1, p.g1+1, p.drift)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d, pair %d: current %v, map memo %v", op, p.g1, got, want)
			}
			if isFar && !fresh {
				farHits[k]++
			}
		case r < 0.997:
			d := time.Duration(1 + rng.Intn(600e3))
			p.pv.M.Advance(d)
			p.ref.stats.Virtual += d
			clear(p.ref.memo)
		default:
			p.pv.M.ResetStats()
			p.ref.stats = Stats{}
			clear(p.ref.memo)
		}
		if st := p.pv.M.Stats(); st != p.ref.stats {
			t.Fatalf("op %d, pair %d: stats %+v, map memo %+v", op, p.g1, st, p.ref.stats)
		}
	}
	for k, n := range farHits {
		if n < 100 {
			t.Errorf("pair %d: %d far cells re-probed within their epoch, want at least 100", pairs[k].g1, n)
		}
	}
}

// TestPairViewFreshProbeAllocs: once its memo rows exist, a pair view's
// fresh probe after Advance allocates nothing — no map key, no drift
// closure.
func TestPairViewFreshProbeAllocs(t *testing.T) {
	spec := ChainSpec{Noise: noise.PresetStandard(), Seed: 4, PairDrift: []LeverDriftSpec{{
		Shear21: noise.Params{PinkAmp: 0.02, PinkFMin: 1e-5, PinkFMax: 0.01, DriftAmp: 0.06, DriftPeriod: 28800},
	}}}
	pv, win, err := spec.BuildPair(0)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < win.Rows; y++ {
		for x := 0; x < win.Cols; x++ {
			pv.GetCurrent(win.V1At(x), win.V2At(y))
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		pv.M.Advance(time.Second)
		i++
		before := pv.Stats().UniqueProbes
		pv.GetCurrent(win.V1At(i%win.Cols), win.V2At((i/win.Cols)%win.Rows))
		if pv.Stats().UniqueProbes != before+1 {
			t.Fatal("probe after Advance was not fresh")
		}
	})
	if allocs != 0 {
		t.Fatalf("fresh pair-view probe allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkInstrumentAdvance prices opening a memo epoch — the fleet's
// per-tick, per-pair cost — on a SimInstrument after a full raster and on
// a PairView after a fast extraction, each beside an empty instrument.
// ns/op must not depend on how many cells are filled.
func BenchmarkInstrumentAdvance(b *testing.B) {
	sim := func(fill bool) func(*testing.B) {
		return func(b *testing.B) {
			inst, win := benchInstrument(b, false)
			if fill {
				if _, err := csd.Acquire(inst, win); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				inst.Advance(time.Second)
			}
		}
	}
	pair := func(fill bool) func(*testing.B) {
		return func(b *testing.B) {
			spec := ChainSpec{Seed: 7}
			pv, win, err := spec.BuildPair(0)
			if err != nil {
				b.Fatal(err)
			}
			if fill {
				if _, err := core.Extract(csd.PixelSource{Src: pv, Win: win}, win, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				pv.M.Advance(time.Second)
			}
		}
	}
	b.Run("sim/empty", sim(false))
	b.Run("sim/raster", sim(true))
	b.Run("pair/empty", pair(false))
	b.Run("pair/extracted", pair(true))
}

// TestMemoEpochWrap: 255 epochs after a probe the 8-bit epoch stamp comes
// round to the probe's value again; the cell must then read as unset, both
// to a re-probe (the row memo of a SimInstrument, the plane memo of a pair
// view) and to ProbedCells.
func TestMemoEpochWrap(t *testing.T) {
	sim, win, err := (&DoubleDotSpec{Seed: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := ChainSpec{Seed: 1}
	pv, _, err := spec.BuildPair(0)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := win.V1At(3), win.V2At(4)
	for _, c := range []struct {
		inst    Metered
		advance func(time.Duration)
	}{{sim, sim.Advance}, {pv, pv.M.Advance}} {
		for round := 0; round < 3; round++ {
			before := c.inst.Stats().UniqueProbes
			c.inst.GetCurrent(v1, v2)
			if c.inst.Stats().UniqueProbes != before+1 {
				t.Fatalf("%T round %d: probe served a memo entry from 255 epochs ago", c.inst, round)
			}
			for i := 0; i < 255; i++ {
				c.advance(time.Second)
			}
			if c.inst == Metered(sim) {
				if cells := sim.ProbedCells(); len(cells) != 0 {
					t.Fatalf("round %d: ProbedCells lists %v from 255 epochs ago", round, cells)
				}
			}
		}
	}
}

// TestMemoFarProbeBound: cells far outside a store's window, or far from
// an unsized row's first cell, go to the far map, so no row spans more
// than its reach, and a re-probe of any cell in the epoch reads back the
// bits its first probe measured without a new dwell. Covered: a spec-built
// SimInstrument, an unsized SimInstrument on an identical device (which
// must read the same bits and ProbedCells), and a BuildPair pair.
func TestMemoFarProbeBound(t *testing.T) {
	dspec := DoubleDotSpec{Seed: 3, Noise: noise.PresetStandard()}
	sized, win, err := dspec.Build()
	if err != nil {
		t.Fatal(err)
	}
	twin, _, err := dspec.Build()
	if err != nil {
		t.Fatal(err)
	}
	unsized := NewSimInstrument(twin.Dev, twin.Dwell, twin.QuantV1, twin.QuantV2)
	cspec := ChainSpec{Seed: 3, Noise: noise.PresetStandard()}
	pv, pwin, err := cspec.BuildPair(1)
	if err != nil {
		t.Fatal(err)
	}
	points := func(w csd.Window, q float64) [][2]float64 {
		// Row 5 first: its window's first cell, then cells 256 and 300 to
		// the right and one to the left — the growth that must stop at the
		// reach on either side.
		lo, y := math.Floor(w.V1At(0)/q), w.V2At(5)
		var pts [][2]float64
		for _, c := range []float64{0, 256, 300, -1} {
			pts = append(pts, [2]float64{(lo + c + 0.5) * q, y})
		}
		for i := 0; i < w.Rows; i += 7 {
			pts = append(pts, [2]float64{w.V1At(i), w.V2At(i)}, [2]float64{w.V1At(w.Cols - 1 - i), w.V2At(i)})
		}
		for _, s := range []float64{1e2, 1e3, 1e4, 1e6, 1e9} {
			pts = append(pts, [2]float64{s, 0}, [2]float64{0, s}, [2]float64{s, s}, [2]float64{-s, w.V2At(5)},
				[2]float64{w.V1At(5), -s}, [2]float64{-s, -s}, [2]float64{s, w.V2At(5)})
		}
		return pts
	}
	type inst struct {
		name string
		m    Metered
		memo *memoRows
		win  csd.Window
		q    float64
	}
	var reads [2][]float64
	var cells [2][][2]int64
	for k, c := range []inst{
		{"sized sim", sized, &sized.memo, win, sized.QuantV1},
		{"unsized sim", unsized, &unsized.memo, win, unsized.QuantV1},
		{"pair", pv, &pv.M.memo, pwin, pv.M.Quant},
	} {
		pts := points(c.win, c.q)
		var vals []float64
		for _, p := range pts {
			vals = append(vals, c.m.GetCurrent(p[0], p[1]))
		}
		fresh := c.m.Stats().UniqueProbes
		if fresh != len(pts) {
			t.Fatalf("%s: %d fresh probes for %d distinct cells", c.name, fresh, len(pts))
		}
		for i, p := range pts {
			if got := c.m.GetCurrent(p[0], p[1]); math.Float64bits(got) != math.Float64bits(vals[i]) {
				t.Fatalf("%s: re-probe of (%g, %g) read %v, first probe %v", c.name, p[0], p[1], got, vals[i])
			}
		}
		if got := c.m.Stats().UniqueProbes; got != fresh {
			t.Fatalf("%s: re-probes dwelled %d times", c.name, got-fresh)
		}
		if len(c.memo.far) == 0 {
			t.Fatalf("%s: no cell reached the far map", c.name)
		}
		span := max(c.memo.width, 1) + 2*farReach
		check := func(r *memoRow) {
			// Only a row's first allocation may reach past its reach.
			end := r.base + int64(len(r.vals))
			if len(r.vals) > span || r.base < r.reachLo || end > r.reachHi ||
				cap(r.vals) > max(int(r.reachHi-r.base), memoRowCells) {
				t.Fatalf("%s: row %d spans cells [%d, %d), capacity %d, reach [%d, %d); at most %d cells",
					c.name, r.key, r.base, end, cap(r.vals), r.reachLo, r.reachHi, span)
			}
		}
		for _, r := range c.memo.rows {
			check(r)
		}
		for _, r := range c.memo.dense {
			if r != nil {
				check(r)
			}
		}
		if k < 2 {
			reads[k] = vals
			cells[k] = slices.Clone(c.m.(*SimInstrument).ProbedCells())
			if len(cells[k]) != fresh || !slices.IsSortedFunc(cells[k], func(a, b [2]int64) int {
				return cmp.Or(cmp.Compare(a[1], b[1]), cmp.Compare(a[0], b[0]))
			}) {
				t.Fatalf("%s: ProbedCells lists %d cells out of (v2, v1) order or count %d", c.name, len(cells[k]), fresh)
			}
		}
		far := pts[len(pts)-1]
		if adv, ok := c.m.(interface{ Advance(time.Duration) }); ok {
			adv.Advance(time.Second)
		}
		c.m.GetCurrent(far[0], far[1])
		if got := c.m.Stats().UniqueProbes; got != fresh+1 {
			t.Fatalf("%s: a far cell from the last epoch was served again", c.name)
		}
	}
	if !sameBits(reads[0], reads[1]) || !slices.Equal(cells[0], cells[1]) {
		t.Fatal("sized and unsized sims read different bits or list different cells")
	}
	if a, b := sized.ProbedCells(), unsized.ProbedCells(); !slices.Equal(a, b) || len(a) != 1 {
		t.Fatalf("ProbedCells after the epoch: sized %v, unsized %v; want the one far cell", a, b)
	}
}
