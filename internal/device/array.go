package device

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/physics"
	"github.com/fastvg/fastvg/internal/sensor"
)

// ArrayDevice is a simulated N-dot, N-plunger linear array with a single
// charge sensor, the substrate for the n-dot chain extraction of the
// paper's Section 2.3.
type ArrayDevice struct {
	Phys  *physics.Array
	Sens  sensor.Params
	Noise noise.Process

	// Ground-state scratch of the probe hot path; CurrentAt is not safe for
	// concurrent use (MultiInstrument serialises its probes).
	gs  physics.GroundScratch
	occ []int
}

// CurrentAt returns the sensor current at gate voltages v measured at
// virtual time t (seconds). Not safe for concurrent use: the ground-state
// search runs on the device's reusable scratch buffers.
func (d *ArrayDevice) CurrentAt(v []float64, t float64) float64 {
	d.occ = d.Phys.GroundStateInto(d.occ, v, &d.gs)
	i := d.Sens.Current(v, d.occ)
	if d.Noise != nil {
		i += d.Noise.Sample(t)
	}
	return i
}

// MultiInstrument drives an ArrayDevice with dwell accounting and
// memoisation on an N-dimensional voltage quantisation grid. All methods are
// safe for concurrent use: probes, accounting and the idle clock are
// serialised by an internal lock, so several PairViews may share one
// instrument (the interleaving, like on hardware, then depends on timing —
// use independent per-pair instruments, e.g. ChainSpec.BuildPair, when
// deterministic concurrent extraction is required).
//
// The memo has two stores. The first PairView made over an instrument with
// an empty memo claims its plane: a flat memoRows over the view's two gates'
// cells, with every other gate fixed at the view's base cells. A
// configuration whose other-gate cells match the plane, and whose pair cells
// lie within planeReach of zero, is memoised on the plane; every other
// configuration goes to a map keyed by all N cells. Which store holds a
// value therefore depends on the configuration alone, so results and Stats
// never depend on which view claimed the plane — only the cost of a probe
// does. Both stores live in epochs: Advance and ResetStats empty the plane
// in O(1) and clear the map only when it holds entries, which an instrument
// probed only on its plane never gives it.
type MultiInstrument struct {
	Dev   *ArrayDevice
	Dwell time.Duration
	Quant float64 // memoisation pitch for every gate; 0 disables

	mu       sync.Mutex
	plane    *memoPlane // nil until a view claims it
	memo     map[string]float64
	keyBuf   []byte // reusable quantised-key scratch; keys are flat int64 cells
	stats    Stats
	released bool // Release has run
}

// planeReach bounds the plane memo to pair cells in [-planeReach,
// planeReach) on both axes. Row buffers are dense, so the bound caps a
// plane at a few MiB however far apart its probes land; BuildPair's window
// spans cells [0, 128].
const planeReach = 256

// memoPlane is the flat memo of one gate pair's 2-D slice of the
// quantisation grid: rows are gate g2's cells, columns gate g1's.
type memoPlane struct {
	memoRows
	g1, g2 int
	cells  []int64 // every gate's cell at the claiming view's base; g1, g2 unused
}

// slot returns the plane cell of configuration v and whether v lies on the
// plane.
func (p *memoPlane) slot(v []float64, q float64) (c1, c2 int64, ok bool) {
	c1, c2 = quantKey(v[p.g1], q), quantKey(v[p.g2], q)
	if c1 < -planeReach || c1 >= planeReach || c2 < -planeReach || c2 >= planeReach {
		return 0, 0, false
	}
	for i, c := range p.cells {
		if i != p.g1 && i != p.g2 && quantKey(v[i], q) != c {
			return 0, 0, false
		}
	}
	return c1, c2, true
}

// NewMultiInstrument returns an instrument over dev.
func NewMultiInstrument(dev *ArrayDevice, dwell time.Duration, quant float64) *MultiInstrument {
	return &MultiInstrument{Dev: dev, Dwell: dwell, Quant: quant, memo: make(map[string]float64)}
}

// key encodes the quantised gate cells into the reusable scratch buffer —
// a flat little-endian int64 per gate. The buffer is only ever converted to
// a string when a fresh probe is stored; lookups index the map with
// string(buf) directly, which Go serves without allocating.
func (m *MultiInstrument) key(v []float64) []byte {
	if cap(m.keyBuf) < 8*len(v) {
		m.keyBuf = make([]byte, 8*len(v))
	}
	buf := m.keyBuf[:8*len(v)]
	for i, vi := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(quantKey(vi, m.Quant)))
	}
	return buf
}

// GetCurrentN measures the sensor current at the full gate-voltage vector.
// A memoised re-probe costs no allocation: the quantised key is built in the
// instrument's scratch buffer and only materialised as a map key when a new
// configuration is stored.
func (m *MultiInstrument) GetCurrentN(v []float64) float64 {
	val, _ := m.ProbeN(v)
	return val
}

// ProbeN measures like GetCurrentN and additionally reports whether the call
// consumed a fresh dwell (a memo miss on the quantisation grid).
func (m *MultiInstrument) ProbeN(v []float64) (float64, bool) {
	return m.probe(v, nil)
}

// probe measures configuration v for view pv (nil for a direct N-gate
// probe). A view's lever drift warps v in place — under the lock, at the
// virtual time the fresh probe lands, after the memo lookup — which bends
// the voltages the device sees without changing the memoisation key
// (mirroring DoubleDot.Drift, where the warp also sits between the memo and
// the physics).
func (m *MultiInstrument) probe(v []float64, pv *PairView) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.released {
		panic(errReleased)
	}
	m.stats.RawCalls++
	var row *memoRow
	var c1 int64
	var k []byte
	if m.Quant > 0 {
		var c2 int64
		var onPlane bool
		if m.plane != nil {
			c1, c2, onPlane = m.plane.slot(v, m.Quant)
		}
		if onPlane {
			row = m.plane.row(c2)
			if val, ok := m.plane.get(row, c1); ok {
				return val, false
			}
		} else {
			k = m.key(v)
			if val, ok := m.memo[string(k)]; ok {
				return val, false
			}
		}
	}
	m.stats.UniqueProbes++
	m.stats.Virtual += m.Dwell
	t := m.stats.Virtual.Seconds()
	if pv != nil && pv.Drift != nil {
		v[pv.G1], v[pv.G2] = pv.Drift.Warp(v[pv.G1], v[pv.G2], t)
	}
	val := m.Dev.CurrentAt(v, t)
	if row != nil {
		m.plane.put(row, c1, val)
	} else if k != nil {
		m.memo[string(k)] = val
	}
	return val, true
}

// Release hands the plane memo's rows back for the next instrument to
// reuse and drops the N-gate map. Call it once every view's last probe is
// done: a pair instrument built for one job releases when the job ends,
// while long-lived instruments (fleet devices, shared chain sims) never do.
// Probing a released instrument panics; releasing twice does nothing.
func (m *MultiInstrument) Release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.released {
		return
	}
	m.released = true
	if m.plane != nil {
		m.plane.release()
	}
	m.memo = nil
}

// claimPlane gives the instrument a plane memo over gates (g1, g2) at base
// when it has none and its memo is empty.
func (m *MultiInstrument) claimPlane(g1, g2 int, base []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Quant <= 0 || m.plane != nil || len(m.memo) > 0 {
		return
	}
	cells := make([]int64, len(base))
	for i, v := range base {
		cells[i] = quantKey(v, m.Quant)
	}
	m.plane = &memoPlane{memoRows: newMemoRows(), g1: g1, g2: g2, cells: cells}
}

// newEpoch empties both memo stores; callers hold m.mu.
func (m *MultiInstrument) newEpoch() {
	if m.plane != nil {
		m.plane.reset()
	}
	if len(m.memo) > 0 {
		clear(m.memo)
	}
}

// Advance moves the instrument's virtual clock forward by d without probing —
// idle wall time between measurement epochs, the fleet monitor's tick. The
// memo opens a new, empty epoch (a configuration re-requested after idle
// time is a new measurement, with the noise and drift of the new epoch) but
// the cumulative probe accounting is kept.
func (m *MultiInstrument) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Virtual += d
	m.newEpoch()
}

// Stats implements Accountant.
func (m *MultiInstrument) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats clears accounting and opens a new, empty memo epoch.
func (m *MultiInstrument) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
	m.newEpoch()
}

// PairView exposes gates (G1, G2) of a MultiInstrument as a two-gate
// Instrument, holding every other gate at Base — one step of the pairwise
// chain extraction. A view carries its own probe accounting: Stats counts
// only the calls made through this view (fresh dwells attributed by the
// underlying instrument's memo), so concurrent pair extractions sharing one
// MultiInstrument never double-count each other's probes. A single view is
// meant to be driven by one extraction at a time; distinct views of the same
// instrument may run concurrently.
type PairView struct {
	M      *MultiInstrument
	G1, G2 int
	Base   []float64

	// Drift, when non-nil, is a pair-local lever-arm drift: the scanned pair
	// voltages pass through the warp (on the underlying instrument's virtual
	// clock) before reaching the device — the chain counterpart of
	// DoubleDot.Drift, and the mechanism that lets a single pair's matrix go
	// stale while its neighbours stay fresh.
	Drift *LeverDrift

	scratch []float64
	stats   Stats
}

// NewPairView validates indices and returns the adapter. The first view
// made over an instrument with an empty memo claims its plane memo (see
// MultiInstrument).
func NewPairView(m *MultiInstrument, g1, g2 int, base []float64) (*PairView, error) {
	n := m.Dev.Phys.N
	if g1 < 0 || g1 >= n || g2 < 0 || g2 >= n || g1 == g2 {
		return nil, errors.New("device: invalid gate pair")
	}
	if len(base) != n {
		return nil, errors.New("device: base voltage vector length mismatch")
	}
	m.claimPlane(g1, g2, base)
	return &PairView{M: m, G1: g1, G2: g2, Base: append([]float64(nil), base...), scratch: make([]float64, n)}, nil
}

// GetCurrent implements Instrument for the selected gate pair.
func (p *PairView) GetCurrent(v1, v2 float64) float64 {
	copy(p.scratch, p.Base)
	p.scratch[p.G1] = v1
	p.scratch[p.G2] = v2
	val, fresh := p.M.probe(p.scratch, p)
	p.stats.RawCalls++
	if fresh {
		p.stats.UniqueProbes++
		p.stats.Virtual += p.M.Dwell
	}
	return val
}

// Stats implements Accountant with the view's own delta-based counters:
// probes made through other views of the same instrument are not included.
func (p *PairView) Stats() Stats { return p.stats }

// ResetStats zeroes the view's counters. The underlying instrument's
// accounting (and memo) is left untouched — resetting one pair's attribution
// must not erase its neighbours'.
func (p *PairView) ResetStats() { p.stats = Stats{} }
