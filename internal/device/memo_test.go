package device

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/xrand"
)

// mapMemoInstrument is MultiInstrument as it was before the plane memo:
// every configuration memoised in one map keyed by all N quantised cells,
// a view's drift applied after the lookup at the fresh probe's time.
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

// TestSharedChainMemoMatchesMapMemo: a shared chain instrument (the
// NewChainSim build) probed through views (0,1) and (1,2) and through
// GetCurrentN answers exactly as a single map memo does — values bit for
// bit, the instrument's Stats and each view's Stats — whichever store the
// plane memo puts a configuration in. The schedule mixes window probes,
// probes outside the plane's reach, on-plane and off-plane N-gate probes,
// views whose Base moves off the plane and back, epochs and stats resets;
// view (1,2) carries a lever drift.
func TestSharedChainMemoMatchesMapMemo(t *testing.T) {
	spec := ChainSpec{Noise: noise.PresetStandard(), Seed: 5}
	m, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	refInst, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := &mapMemoInstrument{dev: refInst.Dev, dwell: m.Dwell, quant: m.Quant, memo: map[string]float64{}}
	driftSpec := LeverDriftSpec{
		Offset1: noise.Params{DriftAmp: 0.5, DriftPeriod: 100},
		Shear21: noise.Params{PinkAmp: 0.01, PinkFMin: 0.001, PinkFMax: 1},
	}

	base := []float64{1.0, 0, 0, 2.0} // gates 0 and 3 off cell 0
	v01, err := NewPairView(m, 0, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	v12, err := NewPairView(m, 1, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	v12.Drift = driftSpec.build(9)
	refDrift := driftSpec.build(9)
	if p := m.plane; p == nil || p.g1 != 0 || p.g2 != 1 {
		t.Fatalf("view (0,1) did not claim the plane: %+v", p)
	}

	rng := xrand.New(3)
	volt := func() (float64, float64) {
		if rng.Float64() < 0.05 { // beyond the plane's reach
			return 200 + 50*rng.Float64(), -150 * rng.Float64()
		}
		x, y := rng.Intn(win.Cols+10)-5, rng.Intn(win.Rows+10)-5
		return win.V1At(x), win.V2At(y)
	}
	var refView [2]Stats
	views := []*PairView{v01, v12}
	for op := 0; op < 20000; op++ {
		var got, want float64
		switch r := rng.Float64(); {
		case r < 0.7:
			k := 0
			if r >= 0.4 {
				k = 1
			}
			pv := views[k]
			a, b := volt()
			got = pv.GetCurrent(a, b)
			v := append([]float64(nil), pv.Base...)
			v[pv.G1], v[pv.G2] = a, b
			var drift *LeverDrift
			if k == 1 {
				drift = refDrift
			}
			var fresh bool
			want, fresh = ref.probe(v, pv.G1, pv.G2, drift)
			refView[k].RawCalls++
			if fresh {
				refView[k].UniqueProbes++
				refView[k].Virtual += ref.dwell
			}
		case r < 0.97:
			v := append([]float64(nil), base...)
			v[0], v[1] = volt()
			switch rng.Intn(3) {
			case 1: // gate 3 elsewhere in its base cell: still on the plane
				v[3] += 0.1
			case 2: // gate 2 off its base cell: off the plane
				v[2] = 5
			}
			want, _ = ref.probe(append([]float64(nil), v...), 0, 0, nil)
			got = m.GetCurrentN(v)
		case r < 0.98: // move a view's operating point off and back onto the plane
			pv := views[rng.Intn(2)]
			pv.Base[3] = 5 - pv.Base[3]
			continue
		case r < 0.995:
			d := time.Duration(1 + rng.Intn(600e3))
			m.Advance(d)
			ref.stats.Virtual += d
			clear(ref.memo)
			continue
		default:
			m.ResetStats()
			ref.stats = Stats{}
			clear(ref.memo)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("op %d: current %v, map memo %v", op, got, want)
		}
		if st := m.Stats(); st != ref.stats {
			t.Fatalf("op %d: stats %+v, map memo %+v", op, st, ref.stats)
		}
	}
	for k, pv := range views {
		if pv.Stats() != refView[k] {
			t.Errorf("view %d stats %+v, map memo %+v", k, pv.Stats(), refView[k])
		}
	}
}

// TestPairViewFreshProbeAllocs: once its plane rows exist, a pair view's
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
				if _, err := inst.AcquireGrid(win, 1); err != nil {
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

// rowCount is the number of rows the store holds, in its dense window
// and its map together.
func (m *memoRows) rowCount() int {
	n := len(m.rows)
	for _, r := range m.dense {
		if r != nil {
			n++
		}
	}
	return n
}

// TestPlaneReach: probes beyond planeReach cells go to the N-gate map, so
// a far probe never stretches the plane's dense rows across the gap.
func TestPlaneReach(t *testing.T) {
	spec := ChainSpec{Seed: 2}
	pv, win, err := spec.BuildPair(1)
	if err != nil {
		t.Fatal(err)
	}
	pv.GetCurrent(win.V1At(10), win.V2At(20))
	pv.GetCurrent(1e4, win.V2At(20))
	pv.GetCurrent(win.V1At(10), -1e4)
	if rows, n := pv.M.plane.rowCount(), len(pv.M.memo); rows != 1 || n != 2 || pv.M.plane.count != 1 {
		t.Fatalf("plane holds %d rows (%d cells), map %d entries; want 1 row of 1 cell, 2 far entries", rows, pv.M.plane.count, n)
	}
	if r := pv.M.plane.row(quantKey(win.V2At(20), pv.M.Quant)); len(r.vals) != memoRowCells {
		t.Fatalf("plane row spans %d cells, want the window's %d", len(r.vals), memoRowCells)
	}
}

// TestPlaneClaimKeepsEarlierProbes: a view made after N-gate probes of the
// current epoch leaves the memo in the map, so a configuration probed
// before the view existed is still a memo hit through it; after the next
// epoch the next view claims the plane.
func TestPlaneClaimKeepsEarlierProbes(t *testing.T) {
	spec := ChainSpec{Noise: noise.PresetStandard(), Seed: 6}
	m, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := win.V1At(40), win.V2At(50)
	want := m.GetCurrentN([]float64{v1, v2, 0, 0})
	pv, err := NewPairView(m, 0, 1, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := pv.GetCurrent(v1, v2); got != want || pv.Stats().UniqueProbes != 0 {
		t.Fatalf("re-probe through a later view: %v (%d fresh), want the memoised %v", got, pv.Stats().UniqueProbes, want)
	}
	if m.plane != nil {
		t.Fatal("a view claimed the plane over a non-empty memo")
	}
	m.Advance(time.Second)
	if _, err := NewPairView(m, 1, 2, make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	if m.plane == nil || m.plane.g1 != 1 {
		t.Fatalf("no plane claimed after the epoch emptied the memo: %+v", m.plane)
	}
}
