// Package core assembles the paper's fast virtual gate extraction pipeline
// (Section 4): anchor-point preprocessing → shrinking-triangle row- and
// column-major sweeps → erroneous-point filtering → 2-piece-wise linear fit
// → transition-line slopes → virtualization matrix.
package core

import (
	"errors"
	"fmt"

	"github.com/fastvg/fastvg/internal/anchors"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/fitting"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/postproc"
	"github.com/fastvg/fastvg/internal/scratch"
	"github.com/fastvg/fastvg/internal/sweep"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// Source provides sensor current at integer pixel coordinates of the scan
// window; implementations adapt instruments (csd.PixelSource) or recorded
// grids (csd.GridSource).
type Source interface {
	Current(x, y int) float64
}

// Sentinel errors describing where the pipeline gave up; the evaluation
// harness counts any of them as a failed extraction.
var (
	// ErrAnchors: preprocessing could not place a valid anchor pair.
	ErrAnchors = errors.New("core: anchor preprocessing failed")
	// ErrFit: the piecewise fit did not converge on the transition points.
	ErrFit = errors.New("core: piecewise fit failed")
	// ErrNonPhysical: the fitted slopes violate the device-physics prior
	// (both negative, steep < -1 < shallow < 0) or the knee left the window.
	ErrNonPhysical = errors.New("core: extracted lines violate the physics prior")
)

// pointLists recycles the point lists the knee fit and the slope
// refinement build from a result's points; no Result keeps them.
var pointLists scratch.Slices[fitting.Vec2]

// Config tunes the pipeline; the zero value reproduces the paper.
type Config struct {
	Anchors anchors.Config

	// Ablation switches (all false for the paper's method).
	DisableFilter bool // skip Algorithm 3's post-processing filter
	RowSweepOnly  bool // skip the column-major sweep (Section 5.2, CSD 7 discussion)
	NoShrink      bool // keep the triangle static during sweeps

	// NoRefine disables the robust per-branch slope refinement that runs
	// after the paper's anchored knee fit (see refineSlopes); with NoRefine
	// the slopes come from the knee and the initial anchors exactly as in
	// Section 4.3.3.
	NoRefine bool

	// KneeMargin is how far (pixels) the fitted knee may sit outside the
	// window before the result is rejected as non-physical.
	KneeMargin float64
}

func (c *Config) fillDefaults() {
	if c.KneeMargin == 0 {
		c.KneeMargin = 2
	}
}

// Result is a completed extraction.
type Result struct {
	Anchors  anchors.Result
	RowTrace sweep.Trace
	ColTrace sweep.Trace

	RawPoints []grid.Point // both sweeps joined, pre-filter
	Points    []grid.Point // after the post-processing filter

	Fit  fitting.FitKneeResult
	Knee fitting.Vec2 // pixel coordinates of the fitted intersection

	SteepSlopePx   float64 // dy/dx in pixels
	ShallowSlopePx float64
	SteepSlope     float64 // dV2/dV1
	ShallowSlope   float64

	// Refined reports whether the robust per-branch slope refinement
	// replaced the anchored-fit slopes.
	Refined bool

	Matrix virtualgate.Mat2
}

// TriplePointVoltage returns the fitted knee in gate-voltage coordinates.
func (r *Result) TriplePointVoltage(win csd.Window) (v1, v2 float64) {
	return win.V1Min + (r.Knee.X+0.5)*win.StepV1(), win.V2Min + (r.Knee.Y+0.5)*win.StepV2()
}

// Extract runs the fast extraction on a win.Cols × win.Rows window probed
// through src. The window is needed only to convert pixel slopes to voltage
// slopes (they coincide for square isotropic windows).
func Extract(src Source, win csd.Window, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	if err := win.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}

	// Section 4.4: anchor preprocessing.
	anc, err := anchors.Find(src, win.Cols, win.Rows, cfg.Anchors)
	res.Anchors = anc
	if err != nil {
		return res, fmt.Errorf("%w: %v", ErrAnchors, err)
	}
	if err := extractFromAnchors(res, src, win, cfg); err != nil {
		return res, err
	}
	return res, nil
}

// ExtractWithAnchors runs the pipeline from known anchor points, skipping
// the Section 4.4 preprocessing — the entry point for the adaptive
// coarse-to-fine extension and for callers with prior knowledge of the line
// crossings.
func ExtractWithAnchors(src Source, win csd.Window, cfg Config, left, bottom grid.Point) (*Result, error) {
	cfg.fillDefaults()
	if err := win.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	res.Anchors.Left = left
	res.Anchors.Bottom = bottom
	if err := extractFromAnchors(res, src, win, cfg); err != nil {
		return res, err
	}
	return res, nil
}

// extractFromAnchors runs sweeps, filtering, fitting and validation using
// the anchors already stored in res.
func extractFromAnchors(res *Result, src Source, win csd.Window, cfg Config) error {
	// Section 4.3.2: sweeps.
	left, bottom := res.Anchors.Left, res.Anchors.Bottom
	rowSweep, colSweep := sweep.RowSweep, sweep.ColSweep
	if cfg.NoShrink {
		rowSweep, colSweep = sweep.RowSweepNoShrink, sweep.ColSweepNoShrink
	}
	var err error
	res.RowTrace, err = rowSweep(src, left, bottom)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrAnchors, err)
	}
	res.RawPoints = append(res.RawPoints, res.RowTrace.Chosen...)
	if !cfg.RowSweepOnly {
		res.ColTrace, err = colSweep(src, left, bottom)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrAnchors, err)
		}
		res.RawPoints = append(res.RawPoints, res.ColTrace.Chosen...)
	}

	// Algorithm 3 lines 1–4: post-processing filter.
	if cfg.DisableFilter {
		res.Points = append([]grid.Point(nil), res.RawPoints...)
	} else {
		res.Points = postproc.Filter(res.RawPoints)
	}
	if len(res.Points) < 4 {
		return fmt.Errorf("%w: only %d transition points", ErrFit, len(res.Points))
	}

	// Section 4.3.3: fit anchored at the initial anchor points (the paper
	// computes the slopes "using the intersecting point and the initial
	// anchor points").
	a := fitting.Vec2{X: float64(bottom.X), Y: float64(bottom.Y)}
	b := fitting.Vec2{X: float64(left.X), Y: float64(left.Y)}
	return finalizeFit(res, win, cfg, a, b)
}

// finalizeFit fits the 2-piece-wise linear shape through the given endpoint
// anchors to res.Points, fills the slope/matrix fields and validates the
// physics prior. It is shared by the paper pipeline and the adaptive
// extension (which re-anchors the fit on sweep-found line points).
func finalizeFit(res *Result, win csd.Window, cfg Config, a, b fitting.Vec2) error {
	bp := pointLists.Get(len(res.Points))
	pts := *bp
	for i, p := range res.Points {
		pts[i] = fitting.Vec2{X: float64(p.X), Y: float64(p.Y)}
	}
	fit, err := fitting.FitKnee(pts, a, b, fitting.InitialKnee(pts, a, b))
	pointLists.Put(bp)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFit, err)
	}
	res.Fit = fit
	res.Knee = fit.Model.K
	res.SteepSlopePx = fit.Model.SteepSlope()
	res.ShallowSlopePx = fit.Model.ShallowSlope()
	res.SteepSlope = win.PixelSlopeToVoltage(res.SteepSlopePx)
	res.ShallowSlope = win.PixelSlopeToVoltage(res.ShallowSlopePx)

	// Physics prior (Section 4.2) and window sanity.
	if !(res.SteepSlope < -1) || !(res.ShallowSlope > -1 && res.ShallowSlope < 0) {
		return fmt.Errorf("%w: steep=%.3f shallow=%.3f", ErrNonPhysical, res.SteepSlope, res.ShallowSlope)
	}
	if res.Knee.X < -cfg.KneeMargin || res.Knee.X > float64(win.Cols)+cfg.KneeMargin ||
		res.Knee.Y < -cfg.KneeMargin || res.Knee.Y > float64(win.Rows)+cfg.KneeMargin {
		return fmt.Errorf("%w: knee %v outside window", ErrNonPhysical, res.Knee)
	}

	m, err := virtualgate.FromSlopes(res.SteepSlope, res.ShallowSlope)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNonPhysical, err)
	}
	res.Matrix = m
	if !cfg.NoRefine {
		refineSlopes(res, win, cfg)
	}
	return nil
}
