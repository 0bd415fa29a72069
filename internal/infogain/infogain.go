// Package infogain implements Bayesian active probe scheduling for virtual
// gate extraction: instead of rastering sweeps over the scan window, it
// maintains a discrete posterior over each transition line's geometry —
// offset, slope, and a bend/lever parameter — and probes, one cell at a
// time, wherever the binary bright/dark outcome is expected to shrink the
// posterior variance of the virtualization-matrix entries the most. It
// stops when the matrix-entry confidence interval reaches a target instead
// of exhausting a fixed probe pattern, which on quiet devices cuts
// probes-per-pair well below the fast method's sweep budget.
//
// # Posterior model
//
// Each transition line is parameterised in its natural frame. The steep
// line (dot 1, dV2/dV1 < −1) crosses the bottom edge and is written
// x(y) = off + d·y·(1 + bend·y/L) with d = dx/dy ∈ (−1, 0); the shallow
// line (dot 2, dV2/dV1 ∈ (−1, 0)) crosses the left edge and is written
// y(x) = off + s·x·(1 + bend·x/L). Both parameterisations live strictly
// inside the paper's device-physics prior, so every hypothesis the
// scheduler can converge to yields a valid virtualization matrix. The bend
// term models the gentle lever-arm curvature real lines show away from the
// sweet spot; for straight simulated lines it collapses to 0.
//
// A probe at a pixel is labelled bright (the (0,0) side of the line) or
// dark by comparing the measured current against a threshold calibrated
// during seeding from the actual step levels bracketing the line. Each
// hypothesis predicts the label exactly, the measurement mislabels with
// probability NoiseEps, and the posterior is the normalised product of the
// resulting Bernoulli likelihoods over a 3-D hypothesis grid. When the
// posterior concentrates, the grid re-centres and shrinks around the mass
// (re-playing the recorded probe history onto the new grid), so the final
// slope resolution is far finer than the initial grid spacing.
//
// # Probe selection
//
// Candidate cells sit on a fixed fan of scan lines below (steep) or left
// of (shallow) the current knee estimate, at posterior crossing quantiles
// per scan line. Each candidate is scored by the expected posterior
// variance of the line's matrix entry after observing its binary outcome —
// exactly "probe the cell whose above/below-line answer best splits the
// current hypothesis set" — and the best unprobed candidate is measured.
// Enumeration order and tie-breaking (first candidate wins ties) are fixed,
// every probe goes through the instrument contract one cell at a time, and
// no decision depends on wall clock or scheduling, so an extraction is
// bit-identical at any worker count and under trace replay.
//
// # Stopping and escalation
//
// The scheduler alternates between the two lines, always probing the line
// farther from its target, and stops when both matrix entries' 95%
// confidence intervals are at most TargetCI wide. If the budget MaxProbes
// is exhausted first — noise floor too high, seeding mis-bracketed, device
// drifted mid-extraction — Extract returns ErrNoConverge, a deterministic
// pipeline failure that escalation ladders (internal/chainx) treat like
// any other method miss: the next rung re-extracts with the paper's sweeps.
package infogain

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/fitting"
	"github.com/fastvg/fastvg/internal/scratch"
	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// Source provides sensor current at integer pixel coordinates of the scan
// window, the same contract as core.Source and rays.Source.
type Source interface {
	Current(x, y int) float64
}

// Sentinel errors describing where the scheduler gave up; all are
// deterministic outcomes of the probed currents, so escalation ladders may
// fall through to the next method.
var (
	// ErrSeed: the seeding scans could not bracket both transition lines.
	ErrSeed = errors.New("infogain: seeding could not bracket both lines")
	// ErrNoConverge: the probe budget ran out before both matrix entries
	// reached the target confidence interval.
	ErrNoConverge = errors.New("infogain: posterior did not converge within the probe budget")
	// ErrNonPhysical: the posterior-mean lines violate the physics prior
	// (possible on anisotropic windows, where pixel and voltage slopes differ).
	ErrNonPhysical = errors.New("infogain: extracted lines violate the physics prior")
)

// Package defaults, substituted for zero Config fields.
const (
	// DefaultTargetCI sits just above the pixel-lattice information floor:
	// binary labels on integer cells cannot localise a crossing below one
	// pixel, so over the knee-side lever arm the matrix-entry CI bottoms
	// out near 0.02–0.03. Tighter targets make Extract exhaust its budget
	// and escalate.
	DefaultTargetCI  = 0.030
	DefaultMaxProbes = 500  // active-phase probe budget (both lines)
	DefaultNoiseEps  = 0.08 // Bernoulli mislabel probability
	DefaultGridOff   = 48   // offset hypotheses per line
	DefaultGridSlope = 40   // slope hypotheses per line
	DefaultMinProbes = 6    // active probes per line before stopping may fire
)

// defaultBends is the default bend/lever hypothesis grid: straight lines
// plus a gentle curvature of either sign.
var defaultBends = []float64{-0.04, 0, 0.04}

// Config tunes the scheduler; the zero value uses the defaults above.
type Config struct {
	// TargetCI is the stopping rule: the 95% confidence interval of each
	// matrix entry (A12 for the steep line, A21 for the shallow) must be at
	// most this wide. Default DefaultTargetCI.
	TargetCI float64
	// MaxProbes caps the active-phase probes (seeding excluded); exceeding
	// it returns ErrNoConverge. Default DefaultMaxProbes.
	MaxProbes int
	// NoiseEps is the assumed probability that a probe's bright/dark label
	// is wrong; it tempers the likelihood so no single noisy probe can kill
	// the true hypothesis. Default DefaultNoiseEps.
	NoiseEps float64
	// GridOff and GridSlope size the hypothesis grid per line; Bends lists
	// the bend/lever hypotheses (nil uses the ±0.04 default).
	GridOff   int
	GridSlope int
	Bends     []float64
	// MinProbes is the minimum active probes per line before its stopping
	// rule may fire; defends against overconfident early posteriors.
	// Default 6.
	MinProbes int
	// Prior, when non-nil, centres the initial hypothesis grids on known
	// line geometry — a warm surrogate twin's fit or a fleet pair's last
	// calibration — and narrows the seeding scans around the predicted
	// crossings, cutting the probes spent rediscovering what is known.
	Prior *Prior
	// Metrics, when non-nil, counts extraction outcomes in a telemetry
	// registry. It is live-serving state, not part of the extraction
	// recipe: it never enters request hashing or trace encoding, and
	// replay paths leave it nil so reruns don't inflate live counters.
	Metrics *Metrics `json:"-"`
}

// Metrics is the vgx_infogain_* family set.
type Metrics struct {
	Extractions      *telemetry.Counter
	CIMisses         *telemetry.Counter
	ProbesToConverge *telemetry.Histogram
}

// NewMetrics registers the vgx_infogain_* families on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Extractions:      reg.Counter("vgx_infogain_extractions_total", "Active-scheduler extractions that converged."),
		CIMisses:         reg.Counter("vgx_infogain_ci_misses_total", "Extractions that missed the CI target (budget exhausted or information floor)."),
		ProbesToConverge: reg.Histogram("vgx_infogain_probes_to_converge", "Total probes (seed + active) of converged extractions.", telemetry.ProbeBuckets),
	}
}

// Prior is externally known line geometry used to warm-start the posterior.
type Prior struct {
	// SteepSlope and ShallowSlope are voltage slopes (dV2/dV1), as reported
	// by any extraction Result.
	SteepSlope   float64
	ShallowSlope float64
	// TripleV1 and TripleV2 locate the triple point in gate voltages.
	TripleV1 float64
	TripleV2 float64
	// SlopeSpanFrac is the relative half-width of the slope grid around the
	// prior slope (default 0.35); CrossSpanPx the half-width of the offset
	// grid around the predicted crossing, in pixels (default 12).
	SlopeSpanFrac float64
	CrossSpanPx   float64
}

func (c *Config) fillDefaults() {
	if c.TargetCI == 0 {
		c.TargetCI = DefaultTargetCI
	}
	if c.MaxProbes == 0 {
		c.MaxProbes = DefaultMaxProbes
	}
	if c.NoiseEps == 0 {
		c.NoiseEps = DefaultNoiseEps
	}
	if c.GridOff == 0 {
		c.GridOff = DefaultGridOff
	}
	if c.GridSlope == 0 {
		c.GridSlope = DefaultGridSlope
	}
	if c.Bends == nil {
		c.Bends = defaultBends
	}
	if c.MinProbes == 0 {
		c.MinProbes = DefaultMinProbes
	}
}

// LineEstimate reports one line's posterior summary.
type LineEstimate struct {
	// Entry and EntryCI are the posterior mean and 95% CI width of the
	// line's virtualization-matrix entry (A12 or A21).
	Entry   float64 `json:"entry"`
	EntryCI float64 `json:"entryCI"`
	// SlopePx is the posterior-mean pixel slope (dy/dx).
	SlopePx float64 `json:"slopePx"`
	// Bend is the posterior-mean bend/lever parameter.
	Bend float64 `json:"bend"`
	// Probes counts this line's active-phase probes; Refines its grid
	// refinements.
	Probes  int `json:"probes"`
	Refines int `json:"refines"`
}

// Result is a completed active extraction.
type Result struct {
	SteepSlopePx   float64 `json:"steepSlopePx"`
	ShallowSlopePx float64 `json:"shallowSlopePx"`
	SteepSlope     float64 `json:"steepSlope"`   // dV2/dV1
	ShallowSlope   float64 `json:"shallowSlope"` // dV2/dV1

	Matrix virtualgate.Mat2 `json:"matrix"`
	Knee   fitting.Vec2     `json:"knee"` // pixel coordinates of the line intersection

	Steep   LineEstimate `json:"steep"`
	Shallow LineEstimate `json:"shallow"`

	// SeedProbes counts the seeding-phase probes (diagonal + bracket
	// scans); ActiveProbes the scheduler's probes. Unique instrument probes
	// may be lower when the scheduler revisits a seeded cell.
	SeedProbes   int `json:"seedProbes"`
	ActiveProbes int `json:"activeProbes"`
}

// TriplePointVoltage returns the fitted knee in gate-voltage coordinates.
func (r *Result) TriplePointVoltage(win csd.Window) (v1, v2 float64) {
	return win.V1Min + (r.Knee.X+0.5)*win.StepV1(), win.V2Min + (r.Knee.Y+0.5)*win.StepV2()
}

// Extract runs the active scheduler on a win.Cols × win.Rows window probed
// through src.
func Extract(src Source, win csd.Window, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	if err := win.Validate(); err != nil {
		return nil, err
	}
	s, _ := schedulers.Get().(*Scheduler)
	if s == nil {
		s = new(Scheduler)
	}
	s.reset(win, cfg)
	defer s.recycle()
	err := s.Seed(src)
	if err == nil {
		err = s.Run(src)
	}
	var res *Result
	if err == nil {
		res, err = s.Finish()
	}
	if m := cfg.Metrics; m != nil {
		switch {
		case err == nil:
			m.Extractions.Inc()
			m.ProbesToConverge.Observe(float64(res.SeedProbes + res.ActiveProbes))
		case errors.Is(err, ErrNoConverge):
			m.CIMisses.Inc()
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Scheduler is the reusable active-probing state machine behind Extract,
// exposed so hot-path callers (benchmarks, the alloc regression test) can
// step it without re-allocating the posterior grids.
type Scheduler struct {
	win csd.Window
	cfg Config

	steep   posterior // frame u=y, v=x: x(y) = off + d·y·(1+bend·y/L)
	shallow posterior // frame u=x, v=y: y(x) = off + s·x·(1+bend·x/L)

	// gx and gy are the bright plane's current gradients (per pixel along
	// x and y), calibrated by the seed scans.
	gx, gy float64

	probed []uint64 // bitmask over win cells, set once per probed pixel

	seedProbes   int
	activeProbes int
}

// schedulers holds the schedulers of finished extractions, whose buffers
// the next Extract reuses. The collector empties a sync.Pool, so it keeps
// no more than recently finished extractions held.
var schedulers sync.Pool // of *Scheduler

// NewScheduler builds a scheduler with all buffers pre-allocated; no
// further allocations happen on the probe hot path.
func NewScheduler(win csd.Window, cfg Config) *Scheduler {
	s := new(Scheduler)
	s.reset(win, cfg)
	return s
}

// recycle hands a finished Extract's scheduler to the next one, holding
// none of the caller's configuration.
func (s *Scheduler) recycle() {
	s.cfg = Config{}
	s.steep.prior, s.shallow.prior = nil, nil
	schedulers.Put(s)
}

// reset starts s on an extraction of win exactly as NewScheduler does:
// every field but the buffers starts at its zero value, and every buffer
// is zeroed and sized as a new one would be, reusing the memory s already
// holds where it is large enough.
func (s *Scheduler) reset(win csd.Window, cfg Config) {
	cfg.fillDefaults()
	steep, shallow, probed := s.steep.buffers, s.shallow.buffers, s.probed
	*s = Scheduler{win: win, cfg: cfg}
	s.steep.buffers, s.shallow.buffers = steep, shallow
	s.steep.name, s.shallow.name = "steep", "shallow"
	// The steep line's frame: u = y (scan along rows), v = x (the crossing
	// moves along columns). The shallow line is the transpose.
	s.shallow.xIsU = true
	// Matrix entries: A12 = −1/steepV = −d·StepV1/StepV2 and
	// A21 = −shallowV = −s·StepV2/StepV1 (see virtualgate.FromSlopes).
	s.steep.entryScale = -win.StepV1() / win.StepV2()
	s.shallow.entryScale = -win.StepV2() / win.StepV1()
	if cfg.Prior != nil {
		s.steep.prior, s.shallow.prior = buildPriors(win, cfg.Prior)
	}
	s.steep.init(&cfg, win.Rows, win.Cols)
	s.shallow.init(&cfg, win.Cols, win.Rows)
	s.probed = scratch.Zeroed(probed, (win.Cols*win.Rows+63)/64)
}

// buildPriors converts externally known voltage-space geometry into the
// per-line pixel-frame priors. A prior whose slope falls outside the
// physics-valid pixel range is dropped rather than clamped: better to
// search wide than to anchor the grid on an impossible hypothesis.
func buildPriors(win csd.Window, pr *Prior) (steep, shallow *linePrior) {
	slopeFrac := pr.SlopeSpanFrac
	if slopeFrac == 0 {
		slopeFrac = 0.35
	}
	span := pr.CrossSpanPx
	if span == 0 {
		span = 12
	}
	kx := (pr.TripleV1-win.V1Min)/win.StepV1() - 0.5
	ky := (pr.TripleV2-win.V2Min)/win.StepV2() - 0.5
	if steepPx := win.VoltageSlopeToPixel(pr.SteepSlope); steepPx < -1 {
		d := 1 / steepPx // dx/dy ∈ (−1, 0)
		steep = &linePrior{
			off: kx - d*ky, slope: d,
			slopeSpan: slopeFrac * math.Abs(d), span: span,
		}
	}
	if shPx := win.VoltageSlopeToPixel(pr.ShallowSlope); shPx > -1 && shPx < 0 {
		shallow = &linePrior{
			off: ky - shPx*kx, slope: shPx,
			slopeSpan: slopeFrac * math.Abs(shPx), span: span,
		}
	}
	return steep, shallow
}

func (s *Scheduler) markProbed(x, y int) {
	i := y*s.win.Cols + x
	s.probed[i/64] |= 1 << (uint(i) % 64)
}

func (s *Scheduler) wasProbed(x, y int) bool {
	i := y*s.win.Cols + x
	return s.probed[i/64]&(1<<(uint(i)%64)) != 0
}

// Seed calibrates the labelling model and warm-starts the posteriors: one
// coarse row scan brackets the steep line, one coarse column scan the
// shallow line. The sensor current is not flat inside a charge region — it
// ramps along both gates on the sensor flank — so instead of a global
// threshold the scheduler labels probes against a planar bright model,
// whose gradients come from the scans' pre-step segments and whose step
// size from the detected transition drop. With a Prior, the scans narrow
// to a band around the predicted crossings.
func (s *Scheduler) Seed(src Source) error {
	w, h := s.win.Cols, s.win.Rows
	if err := s.seedLine(src, &s.steep, seedFracs(h)); err != nil {
		return err
	}
	if err := s.seedLine(src, &s.shallow, seedFracs(w)); err != nil {
		return err
	}
	// The steep line's scan runs along x, the shallow's along y: together
	// they give the bright plane's gradient.
	s.gx = s.steep.seedGrad
	s.gy = s.shallow.seedGrad
	// Only now can the scan samples be labelled; feed both scans into
	// their posteriors.
	s.applySeed(&s.steep)
	s.applySeed(&s.shallow)
	return nil
}

// bright reports whether a measured current at a pixel sits on the (0,0)
// side of p's transition line: above the extrapolated bright plane minus
// half the line's calibrated step.
func (s *Scheduler) bright(p *posterior, x, y int, c float64) bool {
	b := p.refV + s.gx*float64(x-p.refX) + s.gy*float64(y-p.refY)
	return c > b-0.5*p.step
}

// applySeed labels p's recorded seed scan and folds it into the posterior.
func (s *Scheduler) applySeed(p *posterior) {
	for i := 0; i < p.seedN; i++ {
		x, y := p.cell(p.seedU, p.scanV[i])
		p.observe(p.seedU, p.scanV[i], s.bright(p, x, y, p.scanC[i]))
	}
}

// seedFracs returns the scan-line positions (as fractions of the knee-side
// extent) tried in order until one brackets the line.
func seedFracs(lim int) [3]int {
	return [3]int{
		int(math.Round(0.10 * float64(lim-1))),
		int(math.Round(0.20 * float64(lim-1))),
		int(math.Round(0.30 * float64(lim-1))),
	}
}

// seedLine coarse-scans across the line at a fixed u (a row for the steep
// line, a column for the shallow) looking for the first dominant current
// step, and calibrates p's labelling model — step size, bright reference
// and ramp gradient — from the step levels and the pre-step segment.
func (s *Scheduler) seedLine(src Source, p *posterior, us [3]int) error {
	lo, hi := 0, p.vLim-1
	div := 14
	if pr := p.prior; pr != nil {
		// Narrow the scan to a band around the prior's predicted crossing
		// at the first scan line; inside a trusted band a sparser scan
		// still brackets the step.
		c := pr.crossAt(float64(us[0]))
		span := pr.span
		lo = clampInt(int(c-span), 0, p.vLim-1)
		hi = clampInt(int(c+span), 0, p.vLim-1)
		if hi-lo < 4 {
			lo, hi = 0, p.vLim-1
		} else {
			div = 8
		}
	}
	stride := (hi - lo) / div
	if stride < 1 {
		stride = 1
	}
	for _, u := range us {
		if s.seedScan(src, p, u, lo, hi, stride) {
			return nil
		}
		// The band may have missed a drifted line: fall back to the full
		// extent on the retry lines.
		lo, hi = 0, p.vLim-1
		stride = (hi - lo) / 14
		if stride < 1 {
			stride = 1
		}
	}
	return fmt.Errorf("%w: no step along %s scans", ErrSeed, p.name)
}

// seedScan runs one coarse scan at fixed u and returns whether it found a
// usable step. On success p's labelling model (step, refV/refX/refY,
// seedGrad) is calibrated and the raw samples are kept for applySeed.
func (s *Scheduler) seedScan(src Source, p *posterior, u, lo, hi, stride int) bool {
	n := 0
	for v := lo; v <= hi && n < len(p.scanV); v += stride {
		x, y := p.cell(u, v)
		p.scanV[n] = v
		p.scanC[n] = src.Current(x, y)
		s.seedProbes++
		s.markProbed(x, y)
		n++
	}
	if n < 5 {
		return false
	}
	maxC, minC := p.scanC[0], p.scanC[0]
	for i := 1; i < n; i++ {
		maxC = math.Max(maxC, p.scanC[i])
		minC = math.Min(minC, p.scanC[i])
	}
	// The largest downward step between consecutive samples must dominate
	// the scan's range to count as a transition rather than noise; among
	// comparably large drops the first wins — on scans that cross several
	// honeycomb lines, the first crossing is this line's.
	maxDrop := 0.0
	for i := 0; i+1 < n; i++ {
		if d := p.scanC[i] - p.scanC[i+1]; d > maxDrop {
			maxDrop = d
		}
	}
	if maxDrop < 0.35*(maxC-minC) || maxDrop <= 0 {
		return false
	}
	bestI := -1
	for i := 0; i+1 < n; i++ {
		if p.scanC[i]-p.scanC[i+1] >= 0.5*maxDrop {
			bestI = i
			break
		}
	}
	// The pre-step segment estimates the bright ramp's gradient along the
	// scan axis; it needs at least three points to be trustworthy.
	if bestI < 2 {
		return false
	}
	var sv, sc, svv, svc float64
	m := float64(bestI + 1)
	for i := 0; i <= bestI; i++ {
		v, c := float64(p.scanV[i]), p.scanC[i]
		sv += v
		sc += c
		svv += v * v
		svc += v * c
	}
	den := svv - sv*sv/m
	if den <= 0 {
		return false
	}
	p.seedGrad = (svc - sv*sc/m) / den
	p.step = p.scanC[bestI] - p.scanC[bestI+1]
	p.refV = p.scanC[bestI]
	p.refX, p.refY = p.cell(u, p.scanV[bestI])
	p.seedU, p.seedN = u, n
	return true
}

// floorSlack relaxes the stopping CI when a line hits the window's
// information floor: binary labels on integer pixels cannot localise a
// crossing below one pixel, so over a short knee-side lever arm the
// reachable CI bottoms out above the target. A line whose best remaining
// candidate carries no expected information is accepted at up to
// floorSlack × TargetCI; beyond that the extraction fails and escalates.
const floorSlack = 2.0

// Run executes the active loop: repeatedly pick the line farther from its
// confidence target, probe its highest-scoring candidate cell, update that
// line's posterior, until both lines converge (or bottom out at the
// window's information floor within slack) or the budget runs out.
func (s *Scheduler) Run(src Source) error {
	for {
		doneS, doneSh := s.steep.done(&s.cfg), s.shallow.done(&s.cfg)
		if doneS && doneSh {
			return nil
		}
		if s.activeProbes >= s.cfg.MaxProbes {
			return fmt.Errorf("%w: %d probes, CI steep=%.4g shallow=%.4g target=%.4g",
				ErrNoConverge, s.activeProbes, s.steep.entryCI(), s.shallow.entryCI(), s.cfg.TargetCI)
		}
		// The eligible line with the larger CI deficit probes next; the
		// steep line wins ties so the order is fixed.
		var p *posterior
		if !doneS && !s.steep.floored {
			p = &s.steep
		}
		if !doneSh && !s.shallow.floored &&
			(p == nil || s.shallow.entryCI() > s.steep.entryCI()) {
			p = &s.shallow
		}
		if p == nil {
			// Every unconverged line is at its information floor: no
			// remaining candidate can move its posterior.
			if s.atFloor(&s.steep) && s.atFloor(&s.shallow) {
				return nil
			}
			return fmt.Errorf("%w: information floor at CI steep=%.4g shallow=%.4g, target=%.4g",
				ErrNoConverge, s.steep.entryCI(), s.shallow.entryCI(), s.cfg.TargetCI)
		}
		if !s.stepLine(src, p) {
			p.floored = true
		}
	}
}

// atFloor reports whether p's posterior, though short of the target, is
// acceptable as the window's information floor.
func (s *Scheduler) atFloor(p *posterior) bool {
	return p.probes >= s.cfg.MinProbes && p.entryCI() <= floorSlack*s.cfg.TargetCI
}

// stepLine probes p's best unprobed candidate; reports false when no
// remaining candidate carries expected information (the line's floor).
func (s *Scheduler) stepLine(src Source, p *posterior) bool {
	u, v, gain, ok := p.bestCandidate(s)
	if !ok || gain <= 1e-9*variance(p.mSlope, p.mSlope2)+1e-15 {
		return false
	}
	x, y := p.cell(u, v)
	c := src.Current(x, y)
	s.activeProbes++
	p.probes++
	s.markProbed(x, y)
	p.observe(u, v, s.bright(p, x, y, c))
	return true
}

// Finish validates the physics prior and assembles the Result.
func (s *Scheduler) Finish() (*Result, error) {
	res := &Result{
		SeedProbes:   s.seedProbes,
		ActiveProbes: s.activeProbes,
		Steep:        s.steep.estimate(),
		Shallow:      s.shallow.estimate(),
	}
	d := s.steep.meanSlope()    // dx/dy
	sh := s.shallow.meanSlope() // dy/dx
	if d >= 0 || sh >= 0 {
		return res, fmt.Errorf("%w: mean slopes d=%.3f s=%.3f", ErrNonPhysical, d, sh)
	}
	res.SteepSlopePx = 1 / d
	res.ShallowSlopePx = sh
	res.SteepSlope = s.win.PixelSlopeToVoltage(res.SteepSlopePx)
	res.ShallowSlope = s.win.PixelSlopeToVoltage(res.ShallowSlopePx)
	if !(res.SteepSlope < -1) || !(res.ShallowSlope > -1 && res.ShallowSlope < 0) {
		return res, fmt.Errorf("%w: steep=%.3f shallow=%.3f", ErrNonPhysical, res.SteepSlope, res.ShallowSlope)
	}
	// Knee: intersection of x = offS + d·y with y = offH + sh·x.
	offS, offH := s.steep.meanOff(), s.shallow.meanOff()
	den := 1 - d*sh
	kx := (offS + d*offH) / den
	ky := offH + sh*kx
	res.Knee = fitting.Vec2{X: kx, Y: ky}
	m, err := virtualgate.FromSlopes(res.SteepSlope, res.ShallowSlope)
	if err != nil {
		return res, fmt.Errorf("%w: %v", ErrNonPhysical, err)
	}
	res.Matrix = m
	return res, nil
}

// Probes returns the scheduler's issued probe count (seed + active). The
// instrument's unique-probe accounting may be lower when cells repeat.
func (s *Scheduler) Probes() int { return s.seedProbes + s.activeProbes }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
