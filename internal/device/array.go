package device

import (
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

// MultiInstrument drives an ArrayDevice through one adjacent gate pair,
// the instrument ChainSpec.BuildPair builds: gates g1 and g2 are scanned
// and every other gate stays at its base voltage, with dwell accounting and
// memoisation on the pair's quantisation grid. The memo is the row store
// SimInstrument uses (memoRows), sized for the pair's scan window: rows
// are gate g2's cells, columns gate g1's. All methods are safe for
// concurrent use: probes, accounting and the idle clock are serialised by
// an internal lock.
type MultiInstrument struct {
	Dev   *ArrayDevice
	Dwell time.Duration
	Quant float64 // memoisation pitch of both scanned gates; 0 disables

	g1, g2 int
	// drift, when non-nil, is a pair-local lever-arm drift: the scanned
	// pair voltages pass through the warp on the instrument's virtual
	// clock before reaching the device — the chain counterpart of
	// DoubleDot.Drift, and the mechanism that lets a single pair's matrix
	// go stale while its neighbours stay fresh.
	drift *LeverDrift

	mu       sync.Mutex
	v        []float64 // gate voltages: the base, with the pair's last fresh probe
	memo     memoRows
	stats    Stats
	released bool // Release has run
}

// probe measures the pair at (v1, v2). The drift warps the voltages after
// the memo lookup, at the virtual time the fresh probe lands, which bends
// the voltages the device sees without changing the memoisation key
// (mirroring DoubleDot.Drift, where the warp also sits between the memo and
// the physics).
func (m *MultiInstrument) probe(v1, v2 float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.released {
		panic(errReleased)
	}
	m.stats.RawCalls++
	memoised := m.Quant > 0
	var row *memoRow
	var c1 int64
	if memoised {
		row = m.memo.row(quantKey(v2, m.Quant))
		c1 = quantKey(v1, m.Quant)
		if val, ok := m.memo.get(row, c1); ok {
			return val
		}
	}
	m.stats.UniqueProbes++
	m.stats.Virtual += m.Dwell
	t := m.stats.Virtual.Seconds()
	if m.drift != nil {
		v1, v2 = m.drift.Warp(v1, v2, t)
	}
	m.v[m.g1], m.v[m.g2] = v1, v2
	val := m.Dev.CurrentAt(m.v, t)
	if memoised {
		m.memo.put(row, c1, val)
	}
	return val
}

// Release hands the memo's rows back for the next instrument to reuse.
// Call it once the last probe is done: a pair instrument built for one job
// releases when the job ends, while long-lived instruments (fleet devices)
// never do. Probing a released instrument panics; releasing twice does
// nothing.
func (m *MultiInstrument) Release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.released {
		return
	}
	m.released = true
	m.memo.release()
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
	m.memo.reset()
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
	m.memo.reset()
}

// PairView is a chain pair's two-gate Instrument, as ChainSpec.BuildPair
// returns it: GetCurrent(v1, v2) probes M's pair at (v1, v2), and every
// other method acts on M, whose accounting the view reports.
type PairView struct {
	M *MultiInstrument
}

// GetCurrent implements Instrument for the pair.
func (p *PairView) GetCurrent(v1, v2 float64) float64 { return p.M.probe(v1, v2) }

// Stats implements Accountant.
func (p *PairView) Stats() Stats { return p.M.Stats() }

// ResetStats implements Accountant.
func (p *PairView) ResetStats() { p.M.ResetStats() }

// Advance moves the pair's virtual clock forward by d (MultiInstrument.Advance).
func (p *PairView) Advance(d time.Duration) { p.M.Advance(d) }

// Release hands the pair's memo rows back (MultiInstrument.Release).
func (p *PairView) Release() { p.M.Release() }
