// Package surrogate implements a learned digital twin of a quantum dot
// device: a per-device model fitted from recorded probe samples that answers
// probes from memory and escalates only low-confidence cells to the live
// backend.
//
// The model has two parts. A window-aligned cell grid stores the last
// measured current per probed pixel — a local interpolator whose confidence
// decays with pixel distance to the nearest probed cell. On top of it a
// piecewise charge-stability fit (fitting.Polyline2, the same A–K–B shape
// the extraction pipeline produces) locates the transition lines from the
// stored cells; a guard band around the fitted lines is always reported as
// zero-confidence, because the lines are exactly where the device drifts and
// where a stale answer would corrupt an extraction. The division of labour
// follows from the probe economics: plateau cells are flat, already
// measured, and dominate probe counts, while line-adjacent cells are cheap
// to re-measure and carry all of the drift signal.
//
// Hybrid composes a Model over any live instrument: probes whose model
// confidence clears a threshold are served from the twin, the rest fall
// through (and, with Learn, refresh the twin). A Hybrid over a
// trace.Recorder records exactly the escalated probes, which is what makes
// surrogate extractions replayable bit-for-bit: replaying with the same
// starting model snapshot reproduces the same serve/escalate decisions, so
// the recorded sample stream is consumed in lockstep.
package surrogate

import (
	"errors"
	"fmt"
	"math"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fitting"
	"github.com/fastvg/fastvg/internal/telemetry"
)

// DefaultThreshold is the escalation knob value substituted by callers that
// want surrogate-first probing without tuning: serve a probe from the twin
// when its confidence is at least this. Confidence is 1/(1+d) for a probe d
// pixels from the nearest stored cell (and zero inside the transition-line
// guard band), so 0.35 serves interpolations up to just over two pixels away
// and escalates anything farther.
const DefaultThreshold = 0.35

const (
	// maxInterpPx bounds the nearest-cell search radius (Chebyshev, in
	// pixels). Beyond it confidence is zero regardless of threshold.
	maxInterpPx = 2
	// guardPx is the half-width, in pixels, of the zero-confidence band
	// around the fitted transition lines. It covers the verify tolerance
	// (DefaultMaxShiftFrac, 2 px at the default 100-px window) with margin,
	// so the probes that would reveal drift always escalate live.
	guardPx = 3.0
	// guardRMSFactor widens the guard band by this multiple of the fit's
	// residual RMS: a sloppier fit claims less territory.
	guardRMSFactor = 2.0
	// minDropFrac is the smallest adjacent-cell current drop treated as a
	// transition crossing during fitting, as a fraction of the model's
	// global value range.
	minDropFrac = 0.2
	// maxFitGap is the largest pixel gap between two stored cells that
	// still counts as adjacent for transition detection; coarse-grid scans
	// leave regular gaps well under this.
	maxFitGap = 12
	// minFitCells is the fewest stored cells worth attempting a fit on.
	minFitCells = 16
)

// Fit is a fitted charge-stability shape: the piecewise-linear transition
// model and its residual RMS in millivolts.
type Fit struct {
	Model fitting.Polyline2
	RMS   float64
}

// Model is the digital twin of one device pair: a cell grid of last-measured
// currents over the pair's scan window plus an optional transition-line fit.
// A Model is not safe for concurrent use; callers serialize access per
// device (the fleet probes a pair from one goroutine at a time, the service
// locks per twin).
type Model struct {
	win     csd.Window
	vals    []float64
	filled  []bool
	nFilled int
	samples int64
	fit     *Fit
	guard   float64 // voltage half-width of the zero-confidence band
}

// New returns an empty Model over win. An empty (or unfitted) model reports
// zero confidence for every probe, so a Hybrid over it escalates everything
// — wrapping a fresh twin in a learning Hybrid is how first training
// happens.
func New(win csd.Window) *Model {
	n := win.Cols * win.Rows
	return &Model{win: win, vals: make([]float64, n), filled: make([]bool, n)}
}

// Win returns the scan window the model is aligned to.
func (m *Model) Win() csd.Window { return m.win }

// Cells returns the number of grid cells holding a measured value.
func (m *Model) Cells() int { return m.nFilled }

// Samples returns the total number of samples ever added, including
// overwrites of already-filled cells.
func (m *Model) Samples() int64 { return m.samples }

// Fitted reports whether a transition-line fit is present.
func (m *Model) Fitted() bool { return m.fit != nil }

// Line returns the fitted transition shape, if any.
func (m *Model) Line() (Fit, bool) {
	if m.fit == nil {
		return Fit{}, false
	}
	return *m.fit, true
}

// Add stores one measured sample. Samples outside the window are dropped
// (the grid cannot represent them); within it, the probed pixel's value is
// overwritten — last measurement wins, so escalated live probes refresh a
// stale twin.
func (m *Model) Add(v1, v2, current float64) {
	if v1 < m.win.V1Min || v1 > m.win.V1Max || v2 < m.win.V2Min || v2 > m.win.V2Max {
		return
	}
	idx := m.win.YOf(v2)*m.win.Cols + m.win.XOf(v1)
	if !m.filled[idx] {
		m.filled[idx] = true
		m.nFilled++
	}
	m.vals[idx] = current
	m.samples++
}

// Predict returns the twin's answer for a probe and its confidence in
// [0, 1]. Confidence is 1/(1+d) with d the pixel distance to the nearest
// stored cell (1 for an exactly-probed pixel), clamped to zero when the
// probe is outside the window, farther than maxInterpPx from any stored
// cell, inside the guard band around the fitted transition lines, or when no
// fit exists at all.
func (m *Model) Predict(v1, v2 float64) (current, confidence float64) {
	if m.fit == nil {
		return 0, 0
	}
	if v1 < m.win.V1Min || v1 > m.win.V1Max || v2 < m.win.V2Min || v2 > m.win.V2Max {
		return 0, 0
	}
	if m.fit.Model.Dist(fitting.Vec2{X: v1, Y: v2}) <= m.guard {
		return 0, 0
	}
	x, y := m.win.XOf(v1), m.win.YOf(v2)
	best, bestD2 := -1, math.MaxInt
	for dy := -maxInterpPx; dy <= maxInterpPx; dy++ {
		cy := y + dy
		if cy < 0 || cy >= m.win.Rows {
			continue
		}
		for dx := -maxInterpPx; dx <= maxInterpPx; dx++ {
			cx := x + dx
			if cx < 0 || cx >= m.win.Cols {
				continue
			}
			idx := cy*m.win.Cols + cx
			if !m.filled[idx] {
				continue
			}
			if d2 := dx*dx + dy*dy; d2 < bestD2 {
				best, bestD2 = idx, d2
			}
		}
	}
	if best < 0 {
		return 0, 0
	}
	return m.vals[best], 1 / (1 + math.Sqrt(float64(bestD2)))
}

// Fit locates the transition lines in the stored cells and installs the
// piecewise model that gates Predict. It scans rows and columns for the
// largest adjacent-cell current drop (a transition crossing), splits the
// crossing points into steep and shallow branches around an initial knee
// estimate, anchors each branch at its window edge with a robust line fit,
// and polishes the knee with the same FitKnee optimiser the extraction
// pipeline uses. On any failure the previous fit is kept; call Reset to
// discard a model wholesale.
func (m *Model) Fit() error {
	if m.nFilled < minFitCells {
		return fmt.Errorf("surrogate: only %d cells stored, need %d", m.nFilled, minFitCells)
	}
	rowPts, colPts := m.transitionPoints()
	if len(rowPts) < 2 || len(colPts) < 2 {
		return fmt.Errorf("surrogate: too few transition crossings (%d row, %d col)", len(rowPts), len(colPts))
	}
	all := append(append([]fitting.Vec2{}, rowPts...), colPts...)
	aGuess := fitting.Vec2{X: medianOf(rowPts, func(p fitting.Vec2) float64 { return p.X }), Y: m.win.V2Min}
	bGuess := fitting.Vec2{X: m.win.V1Min, Y: medianOf(colPts, func(p fitting.Vec2) float64 { return p.Y })}
	knee := fitting.InitialKnee(all, aGuess, bGuess)

	// Branch split: steep crossings sit below the knee, shallow ones left
	// of it (the polyline runs bottom edge → knee → left edge).
	var steep, shallow []fitting.Vec2
	for _, p := range rowPts {
		if p.Y < knee.Y {
			steep = append(steep, p)
		}
	}
	for _, p := range colPts {
		if p.X < knee.X {
			shallow = append(shallow, p)
		}
	}
	if len(steep) < 2 || len(shallow) < 2 {
		return errors.New("surrogate: transition crossings do not straddle the knee")
	}

	// Anchor each branch at its window edge via a robust fit; the steep
	// branch is near-vertical, so fit x as a function of y.
	swapped := make([]fitting.Vec2, len(steep))
	for i, p := range steep {
		swapped[i] = fitting.Vec2{X: p.Y, Y: p.X}
	}
	c1, d1, err := fitting.TheilSen(swapped)
	if err != nil {
		return fmt.Errorf("surrogate: steep branch: %w", err)
	}
	c2, d2, err := fitting.TheilSen(shallow)
	if err != nil {
		return fmt.Errorf("surrogate: shallow branch: %w", err)
	}
	a := fitting.Vec2{X: c1 + d1*m.win.V2Min, Y: m.win.V2Min}
	b := fitting.Vec2{X: m.win.V1Min, Y: c2 + d2*m.win.V1Min}

	pts := append(append([]fitting.Vec2{}, steep...), shallow...)
	fr, ferr := fitting.FitKnee(pts, a, b, knee)
	if ferr != nil {
		fr = fitting.FitKneeResult{Model: fitting.Polyline2{A: a, K: knee, B: b}, RMS: rmsTo(fitting.Polyline2{A: a, K: knee, B: b}, pts)}
	}
	k := fr.Model.K
	if k.X < m.win.V1Min || k.X > m.win.V1Max || k.Y < m.win.V2Min || k.Y > m.win.V2Max {
		return fmt.Errorf("surrogate: fitted knee (%.3g, %.3g) outside window", k.X, k.Y)
	}
	m.setFit(&Fit{Model: fr.Model, RMS: fr.RMS})
	return nil
}

// SetLine installs an externally measured transition shape in place of a
// cell-derived Fit — the fleet's delta recalibration re-locates the lines
// with live cross scans far fresher than the plateau cells, and recentring
// the guard band on that measurement is what keeps near-line probing live
// after the lines move. Non-finite or out-of-window shapes are rejected.
func (m *Model) SetLine(f Fit) error {
	if !isFinite(f.Model.A.X, f.Model.A.Y, f.Model.K.X, f.Model.K.Y, f.Model.B.X, f.Model.B.Y, f.RMS) || f.RMS < 0 {
		return fmt.Errorf("surrogate: invalid line shape %+v", f)
	}
	k := f.Model.K
	if k.X < m.win.V1Min || k.X > m.win.V1Max || k.Y < m.win.V2Min || k.Y > m.win.V2Max {
		return fmt.Errorf("surrogate: knee (%.3g, %.3g) outside window", k.X, k.Y)
	}
	m.setFit(&f)
	return nil
}

// Reset discards every stored cell and the fit: the twin forgets the device.
// The fleet calls it when a device is lost or a calibration fails, so a
// rearranged device retrains from live probes instead of interpolating a
// honeycomb that no longer exists.
func (m *Model) Reset() {
	for i := range m.vals {
		m.vals[i] = 0
		m.filled[i] = false
	}
	m.nFilled = 0
	m.fit = nil
	m.guard = 0
}

func (m *Model) setFit(f *Fit) {
	m.fit = f
	m.guard = guardPx*math.Max(m.win.StepV1(), m.win.StepV2()) + guardRMSFactor*f.RMS
}

// transitionPoints scans rows then columns for the largest
// nearly-adjacent-cell current drop, returning one crossing point per row
// (and per column) whose drop clears minDropFrac of the global value range.
func (m *Model) transitionPoints() (rowPts, colPts []fitting.Vec2) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, ok := range m.filled {
		if ok {
			lo = math.Min(lo, m.vals[i])
			hi = math.Max(hi, m.vals[i])
		}
	}
	minDrop := minDropFrac * (hi - lo)
	if !(minDrop > 0) {
		return nil, nil
	}
	for y := 0; y < m.win.Rows; y++ {
		prev, bestA, bestB, bestDrop := -1, 0, 0, 0.0
		for x := 0; x < m.win.Cols; x++ {
			idx := y*m.win.Cols + x
			if !m.filled[idx] {
				continue
			}
			if prev >= 0 && x-prev <= maxFitGap {
				if drop := m.vals[y*m.win.Cols+prev] - m.vals[idx]; drop > bestDrop {
					bestDrop, bestA, bestB = drop, prev, x
				}
			}
			prev = x
		}
		if bestDrop >= minDrop {
			rowPts = append(rowPts, fitting.Vec2{X: (m.win.V1At(bestA) + m.win.V1At(bestB)) / 2, Y: m.win.V2At(y)})
		}
	}
	for x := 0; x < m.win.Cols; x++ {
		prev, bestA, bestB, bestDrop := -1, 0, 0, 0.0
		for y := 0; y < m.win.Rows; y++ {
			idx := y*m.win.Cols + x
			if !m.filled[idx] {
				continue
			}
			if prev >= 0 && y-prev <= maxFitGap {
				if drop := m.vals[prev*m.win.Cols+x] - m.vals[idx]; drop > bestDrop {
					bestDrop, bestA, bestB = drop, prev, y
				}
			}
			prev = y
		}
		if bestDrop >= minDrop {
			colPts = append(colPts, fitting.Vec2{X: m.win.V1At(x), Y: (m.win.V2At(bestA) + m.win.V2At(bestB)) / 2})
		}
	}
	return rowPts, colPts
}

func rmsTo(model fitting.Polyline2, pts []fitting.Vec2) float64 {
	sum := 0.0
	for _, p := range pts {
		d := model.Dist(p)
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pts)))
}

func medianOf(pts []fitting.Vec2, get func(fitting.Vec2) float64) float64 {
	xs := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = get(p)
	}
	// Insertion sort: the slices here are one point per row/column, tiny.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Hybrid serves probes surrogate-first: a probe whose model confidence is at
// least Threshold is answered by the twin, anything else escalates to Inner,
// a scalar instrument that accounts its probes (SimInstrument,
// DatasetInstrument, a chain PairView, a trace.Recorder or trace.Replayer
// all qualify).
// With Learn set, escalated measurements are fed back into the model, so a
// Hybrid over an empty twin is also how the twin trains.
//
// A Threshold of zero (or a nil Model) disables the twin entirely: every
// probe passes through, making the Hybrid byte-identical to Inner — the
// property replay and the threshold-0 tests pin down.
//
// Hybrid implements only the scalar Instrument contract. Like
// trace.Recorder it deliberately hides Inner's batch fast path — the device
// batch contract makes batched and scalar probing bit-identical, and
// per-probe escalation decisions need the scalar path.
//
// Stats delegates to Inner, so probe accounting everywhere in the stack
// keeps counting live probes only; the twin's savings are Hits.
type Hybrid struct {
	Model     *Model
	Inner     device.Metered
	Threshold float64
	Learn     bool

	// Metrics, when non-nil, mirrors per-probe outcomes into a telemetry
	// registry. The increments and the confidence observation are atomic
	// and allocation-free, so the probe hot path stays hot; leave nil to
	// pay nothing.
	Metrics *Metrics

	hits        int
	escalations int
}

// Metrics is the vgx_surrogate_* family set, shared by every Hybrid the
// service and fleet construct (they are per-probe totals across twins,
// not per-twin series).
type Metrics struct {
	Hits        *telemetry.Counter
	Escalations *telemetry.Counter
	Confidence  *telemetry.Histogram
}

// NewMetrics registers the vgx_surrogate_* families on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Hits:        reg.Counter("vgx_surrogate_hits_total", "Probes answered by a twin (live probes saved)."),
		Escalations: reg.Counter("vgx_surrogate_escalations_total", "Probes that fell through to the live backend."),
		Confidence:  reg.Histogram("vgx_surrogate_confidence", "Model confidence of each gated probe.", telemetry.UnitBuckets),
	}
}

// GetCurrent implements device.Instrument.
func (h *Hybrid) GetCurrent(v1, v2 float64) float64 {
	if h.Threshold > 0 && h.Model != nil {
		val, conf := h.Model.Predict(v1, v2)
		if h.Metrics != nil {
			h.Metrics.Confidence.Observe(conf)
		}
		if conf >= h.Threshold {
			h.hits++
			if h.Metrics != nil {
				h.Metrics.Hits.Inc()
			}
			return val
		}
	}
	h.escalations++
	if h.Metrics != nil {
		h.Metrics.Escalations.Inc()
	}
	c := h.Inner.GetCurrent(v1, v2)
	if h.Learn && h.Model != nil {
		h.Model.Add(v1, v2, c)
	}
	return c
}

// Stats returns the wrapped backend's accounting: live probes only.
func (h *Hybrid) Stats() device.Stats { return h.Inner.Stats() }

// Hits returns the number of probes served by the twin — live probes saved.
func (h *Hybrid) Hits() int { return h.hits }

// Escalations returns the number of probes that fell through to Inner.
func (h *Hybrid) Escalations() int { return h.escalations }
