// Package device ties the physics, sensor and noise models into simulated
// measurement instruments.
//
// An Instrument implements the paper's Algorithm 1 (getCurrent): set the
// plunger voltages, wait the dwell time, read the charge-sensor current. The
// dwell wait — typically 50 ms on charge-sensed devices — dominates the
// paper's runtimes, so the simulated instruments charge it on a virtual
// clock and expose the totals through Stats. Temporal noise processes are
// sampled at the virtual time of each measurement, so noise correlations
// follow the probing schedule just as they do on hardware.
//
// Instruments memoise measured configurations: re-requesting a voltage
// configuration returns the recorded value without a new dwell, matching the
// paper's accounting where "number of points probed" counts distinct
// configurations.
package device

import (
	"errors"
	"math"
	"time"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/physics"
	"github.com/fastvg/fastvg/internal/sensor"
)

// DefaultDwell is the paper's per-point dwell time (Section 5.1).
const DefaultDwell = 50 * time.Millisecond

// Stats accounts for an instrument's experimental cost.
type Stats struct {
	UniqueProbes int           // distinct voltage configurations measured (paper's "points probed")
	RawCalls     int           // total getCurrent invocations, cache hits included
	Virtual      time.Duration // dwell time accumulated on the virtual clock
}

// Instrument measures the charge-sensor current at a two-gate voltage
// configuration.
type Instrument interface {
	GetCurrent(v1, v2 float64) float64
}

// Metered is an Instrument that accounts its experimental cost, as every
// simulated instrument, pair view, trace recorder and surrogate hybrid does.
type Metered interface {
	Instrument
	Stats() Stats
}

// Accountant is implemented by instruments that track experimental cost.
type Accountant interface {
	Stats() Stats
	ResetStats()
}

// DoubleDot is a simulated two-plunger, two-dot device with a charge sensor.
type DoubleDot struct {
	Phys  *physics.DoubleDot
	Sens  sensor.Params
	Noise noise.Process // optional; sampled at the virtual measurement time

	// Drift, when non-nil, makes the device's lever arms wander on the
	// virtual clock: gate voltages pass through a slowly time-varying affine
	// warp before reaching the physics. This is the mechanism that lets an
	// extracted virtual-gate matrix go stale — additive sensor noise alone
	// never moves the transition lines.
	Drift *LeverDrift

	// fp caches the derived ground-state table of the zero-allocation probe
	// path; it is rebuilt automatically whenever the physics parameters no
	// longer match the snapshot it was built from.
	fp *fastPath
}

// LeverDrift models slow wander of the effective gate lever arms and
// operating point: the voltages the dots see are
//
//	w1 = v1 + s12(t)·v2 + o1(t)
//	w2 = v2 + s21(t)·v1 + o2(t)
//
// where the shears (dimensionless) and offsets (mV) are noise processes on
// the instrument's virtual clock. A shear changes the apparent transition
// slopes — exactly the cross-capacitance wander that invalidates a
// virtualization matrix — while offsets (e.g. charge jumps) translate the
// whole honeycomb, moving the knee the matrix was anchored to. Any field may
// be nil.
type LeverDrift struct {
	Shear12, Shear21 noise.Process // cross lever-arm wander, dimensionless
	Offset1, Offset2 noise.Process // gate operating-point wander, mV
}

// Warp maps the requested gate voltages to the effective voltages at virtual
// time t.
func (l *LeverDrift) Warp(v1, v2, t float64) (float64, float64) {
	w1, w2 := v1, v2
	if l.Shear12 != nil {
		w1 += l.Shear12.Sample(t) * v2
	}
	if l.Shear21 != nil {
		w2 += l.Shear21.Sample(t) * v1
	}
	if l.Offset1 != nil {
		w1 += l.Offset1.Sample(t)
	}
	if l.Offset2 != nil {
		w2 += l.Offset2.Sample(t)
	}
	return w1, w2
}

// fastPath is the cached derived state of the probe hot path.
type fastPath struct {
	phys physics.DoubleDot    // parameter snapshot the table was built from
	tab  *physics.GroundTable // nil when MaxN exceeds the table bound
}

// fast returns the device's ground-state table, (re)building it when the
// physics parameters changed since the last probe. It writes the device, so
// a DoubleDot is probed from one goroutine at a time.
func (d *DoubleDot) fast() *physics.GroundTable {
	fp := d.fp
	if fp == nil || fp.phys != *d.Phys {
		fp = &fastPath{phys: *d.Phys, tab: d.Phys.Table()}
		d.fp = fp
	}
	return fp.tab
}

// CurrentAt returns the sensor current at (v1, v2) measured at virtual time
// t (seconds).
//
// The common two-gate, two-dot case runs on the zero-allocation fast path:
// a precomputed ground-state table (physics.GroundTable) and the sensor's
// fixed-arity Current2, both of which replay the generic path's
// floating-point operations exactly — the returned current is bit-identical
// either way.
func (d *DoubleDot) CurrentAt(v1, v2, t float64) float64 {
	if d.Drift != nil {
		v1, v2 = d.Drift.Warp(v1, v2, t)
	}
	var i float64
	if tab := d.fast(); tab != nil && d.Sens.CanFast2() {
		n1, n2 := tab.Ground(d.Phys.Mu(0, v1, v2), d.Phys.Mu(1, v1, v2))
		i = d.Sens.Current2(v1, v2, n1, n2)
	} else {
		n1, n2 := d.Phys.GroundState(v1, v2)
		i = d.Sens.Current([]float64{v1, v2}, []int{n1, n2})
	}
	if d.Noise != nil {
		i += d.Noise.Sample(t)
	}
	return i
}

// SimInstrument drives a DoubleDot with dwell-time accounting and
// memoisation on a voltage quantisation grid (normally the scan window's
// pixel pitch δ).
type SimInstrument struct {
	Dev              *DoubleDot
	Dwell            time.Duration
	QuantV1, QuantV2 float64 // memoisation granularity (mV); 0 disables memoisation

	memo  memoRows
	stats Stats

	cells      [][2]int64 // ProbedCells cache; rebuilt lazily after writes
	cellsValid bool
	released   bool
}

// errReleased is the panic value of a probe of a released instrument.
const errReleased = "device: probe of a released instrument"

// NewSimInstrument returns an instrument over dev with the given dwell and
// memoisation pitch.
func NewSimInstrument(dev *DoubleDot, dwell time.Duration, quantV1, quantV2 float64) *SimInstrument {
	return &SimInstrument{
		Dev: dev, Dwell: dwell,
		QuantV1: quantV1, QuantV2: quantV2,
		memo: newMemoRows(),
	}
}

func quantKey(v, q float64) int64 {
	if q <= 0 {
		return 0
	}
	return int64(math.Floor(v / q))
}

// GetCurrent implements Instrument.
func (s *SimInstrument) GetCurrent(v1, v2 float64) float64 {
	if s.released {
		panic(errReleased)
	}
	s.stats.RawCalls++
	memoised := s.QuantV1 > 0 && s.QuantV2 > 0
	var row *memoRow
	var c1 int64
	if memoised {
		row = s.memo.row(quantKey(v2, s.QuantV2))
		c1 = quantKey(v1, s.QuantV1)
		if v, ok := s.memo.get(row, c1); ok {
			return v
		}
	}
	s.stats.UniqueProbes++
	s.stats.Virtual += s.Dwell
	v := s.Dev.CurrentAt(v1, v2, s.stats.Virtual.Seconds())
	if memoised {
		s.record(row, c1, v)
	}
	return v
}

// record memoises a freshly measured cell and invalidates the ProbedCells
// cache.
func (s *SimInstrument) record(row *memoRow, c1 int64, v float64) {
	s.memo.put(row, c1, v)
	s.cellsValid = false
}

// ProbedCells returns the quantisation cells measured so far, sorted by
// (v2 cell, v1 cell). With the memoisation pitch set to a scan window's
// pixel pitch — as NewDoubleDotSim and DoubleDotSpec.Build configure it —
// each cell is a window pixel, so this is the sim counterpart of
// DatasetInstrument.ProbeMap. Empty when memoisation is disabled.
//
// The result is cached: repeated calls between probes return the same
// slice without re-collecting or re-sorting, and the cache is invalidated
// by the next memoised probe. Callers must treat the slice as read-only.
func (s *SimInstrument) ProbedCells() [][2]int64 {
	if !s.cellsValid {
		s.cells = s.memo.cellsSorted()
		s.cellsValid = true
	}
	return s.cells
}

// Stats implements Accountant.
func (s *SimInstrument) Stats() Stats { return s.stats }

// Advance moves the instrument's virtual clock forward by d without probing —
// idle wall time between measurement epochs, the fleet monitor's tick. The
// memoisation cache opens a new, empty epoch in O(1) (a configuration
// re-requested after idle time is a new measurement, with the noise and
// drift of the new epoch) but the cumulative probe accounting is kept, and
// the memo's row buffers stay warm.
func (s *SimInstrument) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	s.stats.Virtual += d
	s.memo.reset()
	s.cells = nil
	s.cellsValid = false
}

// ResetStats clears the accounting and opens a new, empty memo epoch in
// O(1). The memo's row buffers are retained and reused, so resetting does
// not return the probe path to an allocating warm-up state.
func (s *SimInstrument) ResetStats() {
	s.stats = Stats{}
	s.memo.reset()
	s.cells = nil
	s.cellsValid = false
}

// Release hands the instrument's memo rows back for the next instrument to
// reuse. Call it once the instrument's last probe is done and nothing will
// read it again: an instrument built for one job releases when the job
// ends, while long-lived instruments (sessions, fleet devices) never do.
// Probing a released instrument panics; releasing twice does nothing.
func (s *SimInstrument) Release() {
	if s.released {
		return
	}
	s.released = true
	s.memo.release()
	s.cells, s.cellsValid = nil, false
}

// DatasetInstrument replays a pre-acquired CSD, the paper's evaluation
// setup: "when the proposed algorithm needs to obtain a data point … it will
// call a simulated getCurrent function … [which] will return a current from
// a CSD in the dataset". Voltages outside the window clamp to the nearest
// edge pixel.
type DatasetInstrument struct {
	Data  *grid.Grid
	Win   csd.Window
	Dwell time.Duration

	probed []bool
	stats  Stats
}

// NewDatasetInstrument wraps a recorded CSD grid and its scan window.
func NewDatasetInstrument(data *grid.Grid, win csd.Window, dwell time.Duration) (*DatasetInstrument, error) {
	if data == nil {
		return nil, errors.New("device: nil dataset grid")
	}
	if err := win.Validate(); err != nil {
		return nil, err
	}
	if data.W != win.Cols || data.H != win.Rows {
		return nil, errors.New("device: dataset grid size does not match window")
	}
	return &DatasetInstrument{
		Data: data, Win: win, Dwell: dwell,
		probed: make([]bool, data.W*data.H),
	}, nil
}

// GetCurrent implements Instrument.
func (d *DatasetInstrument) GetCurrent(v1, v2 float64) float64 {
	d.stats.RawCalls++
	x, y := d.Win.XOf(v1), d.Win.YOf(v2)
	idx := y*d.Data.W + x
	if !d.probed[idx] {
		d.probed[idx] = true
		d.stats.UniqueProbes++
		d.stats.Virtual += d.Dwell
	}
	return d.Data.At(x, y)
}

// Probed reports whether pixel (x, y) has been measured.
func (d *DatasetInstrument) Probed(x, y int) bool {
	if x < 0 || x >= d.Data.W || y < 0 || y >= d.Data.H {
		return false
	}
	return d.probed[y*d.Data.W+x]
}

// ProbeMap returns the set of probed pixels, the data behind the paper's
// Figure 7.
func (d *DatasetInstrument) ProbeMap() []grid.Point {
	var pts []grid.Point
	for y := 0; y < d.Data.H; y++ {
		for x := 0; x < d.Data.W; x++ {
			if d.probed[y*d.Data.W+x] {
				pts = append(pts, grid.Point{X: x, Y: y})
			}
		}
	}
	return pts
}

// Stats implements Accountant.
func (d *DatasetInstrument) Stats() Stats { return d.stats }

// ResetStats clears accounting and the probed map.
func (d *DatasetInstrument) ResetStats() {
	d.stats = Stats{}
	d.probed = make([]bool, d.Data.W*d.Data.H)
}
