// Package baseline implements the comparison method of the paper's
// evaluation: acquire the complete charge stability diagram, detect edges
// with Canny, extract the two transition lines with a Hough transform, and
// build the virtualization matrix from their slopes (the technique of Mills
// et al. 2019 and Oakes et al. 2020, reimplemented from scratch).
package baseline

import (
	"errors"
	"fmt"
	"math"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/fitting"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/imaging"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// Sentinel errors; the harness counts each as a failed extraction.
var (
	// ErrNoLine: edge detection / Hough voting could not establish one of
	// the two transition lines (the paper's CSD 7 baseline failure).
	ErrNoLine = errors.New("baseline: could not locate both transition lines")
	// ErrNonPhysical: lines found but violating the physics prior.
	ErrNonPhysical = errors.New("baseline: extracted lines violate the physics prior")
)

// Config tunes the baseline; the zero value uses the defaults documented in
// DESIGN.md.
type Config struct {
	Canny imaging.CannyConfig
	Hough imaging.HoughConfig

	MaxPeaks      int     // Hough peaks considered (default 8)
	MinVotesFrac  float64 // min votes as a fraction of the window side (default 0.25)
	SuppressTheta int     // peak suppression half-width in θ bins (default 8)
	SuppressRho   int     // ... in ρ bins (default 10)

	// Refine re-fits each chosen line by total least squares over the edge
	// pixels within RefineDist of it (default on, dist 2 px).
	NoRefine   bool
	RefineDist float64
}

func (c *Config) fillDefaults() {
	if c.Canny == (imaging.CannyConfig{}) {
		c.Canny = imaging.DefaultCannyConfig()
	}
	if c.Hough == (imaging.HoughConfig{}) {
		c.Hough = imaging.DefaultHoughConfig()
	}
	if c.MaxPeaks == 0 {
		c.MaxPeaks = 8
	}
	if c.MinVotesFrac == 0 {
		c.MinVotesFrac = 0.25
	}
	if c.SuppressTheta == 0 {
		c.SuppressTheta = 8
	}
	if c.SuppressRho == 0 {
		c.SuppressRho = 10
	}
	if c.RefineDist == 0 {
		c.RefineDist = 2
	}
}

// Result is a completed baseline extraction.
type Result struct {
	CSD   *grid.Grid // the full acquired diagram
	Edges *grid.Grid // Canny output
	Peaks []imaging.HoughLine

	SteepPeak, ShallowPeak imaging.HoughLine

	SteepSlopePx   float64
	ShallowSlopePx float64
	SteepSlope     float64 // dV2/dV1
	ShallowSlope   float64

	Knee   fitting.Vec2 // intersection, pixel coordinates
	Matrix virtualgate.Mat2
}

// Extract acquires the full CSD through src with csd.Acquire — a recorded
// dataset in one copy, a simulator one row per call — and runs the vision
// pipeline, all on the calling goroutine.
func Extract(src csd.CurrentGetter, win csd.Window, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	g, err := csd.Acquire(src, win)
	if err != nil {
		return nil, err
	}
	return ExtractFromGrid(g, win, cfg)
}

// ExtractFromGrid runs the vision pipeline on an already-acquired CSD.
func ExtractFromGrid(g *grid.Grid, win csd.Window, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	res := &Result{CSD: g}
	norm := g.NormalizedInto(grid.Scratch(g.W, g.H))
	res.Edges = imaging.Canny(norm, cfg.Canny)
	grid.Recycle(norm)
	acc := imaging.Hough(res.Edges, cfg.Hough)
	minVotes := int(cfg.MinVotesFrac * float64(minInt(g.W, g.H)))
	res.Peaks = acc.Peaks(cfg.MaxPeaks, minVotes, cfg.SuppressTheta, cfg.SuppressRho)
	acc.Recycle()

	steep, foundSteep := pickPeak(res.Peaks, func(s float64) bool {
		return s < -1 || math.IsInf(s, 0)
	})
	shallow, foundShallow := pickPeak(res.Peaks, func(s float64) bool {
		return s > -1 && s < -0.005
	})
	if !foundSteep || !foundShallow {
		return res, fmt.Errorf("%w: steep found=%v shallow found=%v (%d peaks)",
			ErrNoLine, foundSteep, foundShallow, len(res.Peaks))
	}
	res.SteepPeak, res.ShallowPeak = steep, shallow

	res.SteepSlopePx = normalizeSteep(steep.Slope())
	res.ShallowSlopePx = shallow.Slope()
	if !cfg.NoRefine {
		edgePts := imaging.EdgePoints(res.Edges)
		if s, ok := refineSlope(edgePts, steep, cfg.RefineDist); ok {
			res.SteepSlopePx = normalizeSteep(s)
		}
		if s, ok := refineSlope(edgePts, shallow, cfg.RefineDist); ok && s > -1 && s < 0 {
			res.ShallowSlopePx = s
		}
	}

	res.SteepSlope = win.PixelSlopeToVoltage(res.SteepSlopePx)
	res.ShallowSlope = win.PixelSlopeToVoltage(res.ShallowSlopePx)
	if !(res.SteepSlope < -1) || !(res.ShallowSlope > -1 && res.ShallowSlope < 0) {
		return res, fmt.Errorf("%w: steep=%.3f shallow=%.3f", ErrNonPhysical, res.SteepSlope, res.ShallowSlope)
	}

	if kx, ky, ok := intersect(res.SteepSlopePx, steep, res.ShallowSlopePx, shallow); ok {
		res.Knee = fitting.Vec2{X: kx, Y: ky}
	}
	m, err := virtualgate.FromSlopes(res.SteepSlope, res.ShallowSlope)
	if err != nil {
		return res, fmt.Errorf("%w: %v", ErrNonPhysical, err)
	}
	res.Matrix = m
	return res, nil
}

// pickPeak returns the highest-vote peak whose slope satisfies the class
// predicate. Peaks arrive strongest-first from the accumulator.
func pickPeak(peaks []imaging.HoughLine, class func(slope float64) bool) (imaging.HoughLine, bool) {
	for _, p := range peaks {
		if class(p.Slope()) {
			return p, true
		}
	}
	return imaging.HoughLine{}, false
}

// normalizeSteep maps vertical-line slopes (±Inf) to -Inf, the steep-line
// convention (a perfectly vertical transition needs zero compensation).
func normalizeSteep(s float64) float64 {
	if math.IsInf(s, 0) {
		return math.Inf(-1)
	}
	return s
}

// refineSlope fits the edge pixels within dist of the peak line by total
// least squares, recovering sub-bin slope accuracy.
func refineSlope(edgePts []grid.Point, line imaging.HoughLine, dist float64) (float64, bool) {
	var pts []fitting.Vec2
	for _, p := range edgePts {
		if line.Dist(float64(p.X), float64(p.Y)) <= dist {
			pts = append(pts, fitting.Vec2{X: float64(p.X), Y: float64(p.Y)})
		}
	}
	if len(pts) < 5 {
		return 0, false
	}
	l, err := fitting.TLSLine(pts)
	if err != nil {
		return 0, false
	}
	return l.Slope(), true
}

// intersect returns the intersection of two lines given by slope and a
// Hough anchor point.
func intersect(m1 float64, l1 imaging.HoughLine, m2 float64, l2 imaging.HoughLine) (x, y float64, ok bool) {
	// Represent each as a·x + b·y = c.
	a1, b1, c1 := lineCoeffs(m1, l1)
	a2, b2, c2 := lineCoeffs(m2, l2)
	det := a1*b2 - a2*b1
	if math.Abs(det) < 1e-12 {
		return 0, 0, false
	}
	x = (c1*b2 - c2*b1) / det
	y = (a1*c2 - a2*c1) / det
	return x, y, true
}

func lineCoeffs(m float64, l imaging.HoughLine) (a, b, c float64) {
	if math.IsInf(m, 0) {
		// Vertical: x = rho/cos(theta) evaluated at y=0.
		return 1, 0, l.XAt(0)
	}
	// y - y0 = m (x - x0) through the line's closest point to the origin.
	x0 := l.Rho * math.Cos(l.Theta)
	y0 := l.Rho * math.Sin(l.Theta)
	return -m, 1, y0 - m*x0
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
