package core

import (
	"math"
	"slices"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/fitting"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// verticalSlopePx is the pixel slope published for a steep branch whose
// x-on-y fit is exactly vertical (slope 0). Its true slope is infinite,
// which no JSON reply or journal record can carry; this one moves the line
// by a micro-pixel over a thousand rows, so it stands for vertical
// (a12 ≈ 1e-9) while staying finite.
const verticalSlopePx = -1e9

// refineSlopes replaces the anchored-fit slopes with robust per-branch
// Theil–Sen estimates over the filtered transition points.
//
// The paper computes the slopes from the fitted knee and the *initial anchor
// points* (Section 4.3.3), which makes the result sensitive to anchor
// placement error — under noise a ±2 px anchor offset tilts the steep slope
// by ~2°. Refinement assigns each filtered point to its nearer branch of the
// fitted polyline and fits each branch independently: the steep branch as
// x = f(y) (well-conditioned near vertical), the shallow branch as y = f(x),
// both with Theil–Sen's ~29% outlier tolerance. The knee moves to the
// refined lines' intersection. If refinement is degenerate or non-physical
// the anchored-fit result is kept, so it can only help.
func refineSlopes(res *Result, win csd.Window, cfg Config) {
	model := res.Fit.Model
	// One pooled buffer holds both branches in point order: the steep
	// branch from the front, swapped for x = c1 + d1·y; the shallow branch
	// from the back, then reversed into point order, for y = c2 + d2·x.
	bp := pointLists.Get(len(res.Points))
	defer pointLists.Put(bp)
	buf := *bp
	ns, nh := 0, len(buf)
	for _, p := range res.Points {
		v := fitting.Vec2{X: float64(p.X), Y: float64(p.Y)}
		if distToSegment(v, model.A, model.K) <= distToSegment(v, model.B, model.K) {
			buf[ns] = fitting.Vec2{X: v.Y, Y: v.X}
			ns++
		} else {
			nh--
			buf[nh] = v
		}
	}
	steepPts, shallowPts := buf[:ns], buf[nh:]
	if len(steepPts) < 5 || len(shallowPts) < 5 {
		return
	}
	slices.Reverse(shallowPts)
	c1, d1, err1 := fitting.TheilSen(steepPts)
	c2, d2, err2 := fitting.TheilSen(shallowPts)
	if err1 != nil || err2 != nil {
		return
	}
	steepPx := verticalSlopePx
	if d1 != 0 {
		steepPx = 1 / d1
	}
	shallowPx := d2
	steepV := win.PixelSlopeToVoltage(steepPx)
	shallowV := win.PixelSlopeToVoltage(shallowPx)
	if !(steepV < -1) || !(shallowV > -1 && shallowV < 0) {
		return // keep the anchored fit
	}
	m, err := virtualgate.FromSlopes(steepV, shallowV)
	if err != nil {
		return
	}
	// Knee: intersection of x = c1 + d1·y and y = c2 + d2·x.
	den := 1 - d1*d2
	if math.Abs(den) > 1e-9 {
		kx := (c1 + d1*c2) / den
		ky := c2 + d2*kx
		if kx >= -cfg.KneeMargin && kx <= float64(win.Cols)+cfg.KneeMargin &&
			ky >= -cfg.KneeMargin && ky <= float64(win.Rows)+cfg.KneeMargin {
			res.Knee = fitting.Vec2{X: kx, Y: ky}
		}
	}
	res.SteepSlopePx = steepPx
	res.ShallowSlopePx = shallowPx
	res.SteepSlope = steepV
	res.ShallowSlope = shallowV
	res.Matrix = m
	res.Refined = true
}

// distToSegment is the Euclidean distance from q to segment ab.
func distToSegment(q, a, b fitting.Vec2) float64 {
	abx, aby := b.X-a.X, b.Y-a.Y
	l2 := abx*abx + aby*aby
	if l2 == 0 {
		return math.Hypot(q.X-a.X, q.Y-a.Y)
	}
	t := ((q.X-a.X)*abx + (q.Y-a.Y)*aby) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return math.Hypot(q.X-(a.X+t*abx), q.Y-(a.Y+t*aby))
}
