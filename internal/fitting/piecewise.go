package fitting

import (
	"errors"
	"math"
)

// Polyline2 is the paper's 2-piece-wise linear shape: the steep segment from
// bottom anchor A up to the knee K, and the shallow segment from K to left
// anchor B. The knee is the transition lines' intersection (the triple
// point); A and B are the initial anchor points found in preprocessing.
type Polyline2 struct {
	A, K, B Vec2
}

// SteepSlope returns the slope dy/dx of the A–K segment (±Inf if vertical).
func (p Polyline2) SteepSlope() float64 { return segSlope(p.A, p.K) }

// ShallowSlope returns the slope of the B–K segment.
func (p Polyline2) ShallowSlope() float64 { return segSlope(p.B, p.K) }

func segSlope(a, b Vec2) float64 {
	dx := b.X - a.X
	if dx == 0 {
		return math.Inf(1)
	}
	return (b.Y - a.Y) / dx
}

// Dist returns the Euclidean distance from q to the nearest of the two
// segments. Using geometric distance (rather than vertical residuals) keeps
// the fit well-conditioned on the near-vertical steep segment.
func (p Polyline2) Dist(q Vec2) float64 {
	// The builtin min has math.Min's NaN and signed-zero rules, inlined.
	return min(segDist(q, p.A, p.K), segDist(q, p.B, p.K))
}

// segDist is the distance from q to segment ab.
func segDist(q, a, b Vec2) float64 {
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
	px := a.X + t*abx
	py := a.Y + t*aby
	return math.Hypot(q.X-px, q.Y-py)
}

// FitKneeResult reports the fitted piecewise model and its residual RMS.
type FitKneeResult struct {
	Model Polyline2
	RMS   float64
}

// FitKnee fits the knee position of the 2-piece-wise linear shape anchored
// at A (bottom) and B (left) to the transition points, minimising the sum of
// squared geometric distances (Section 4.3.3). init seeds the optimiser;
// pass InitialKnee's output or any in-window estimate. Levenberg–Marquardt
// refines first; Nelder–Mead polishes, which handles the kink in the
// distance field near segment ends.
func FitKnee(points []Vec2, a, b, init Vec2) (FitKneeResult, error) {
	if len(points) < 2 {
		return FitKneeResult{}, errors.New("fitting: need at least 2 transition points")
	}
	resid := func(x []float64) []float64 {
		model := Polyline2{A: a, K: Vec2{x[0], x[1]}, B: b}
		out := make([]float64, len(points))
		for i, p := range points {
			out[i] = model.Dist(p)
		}
		return out
	}
	x0 := []float64{init.X, init.Y}
	xLM, err := LevMar(resid, x0, LMOptions{})
	if err != nil {
		xLM = x0
	}
	// The same sum as dot(resid(x), resid(x)), without the residual vector.
	obj := func(x []float64) float64 {
		model := Polyline2{A: a, K: Vec2{x[0], x[1]}, B: b}
		var s float64
		for _, p := range points {
			d := model.Dist(p)
			s += d * d
		}
		return s
	}
	xNM, _, err := NelderMead(obj, xLM, NMOptions{Step: 2})
	if err != nil {
		return FitKneeResult{}, err
	}
	best := xLM
	if obj(xNM) < obj(xLM) {
		best = xNM
	}
	model := Polyline2{A: a, K: Vec2{best[0], best[1]}, B: b}
	rms := math.Sqrt(obj(best) / float64(len(points)))
	return FitKneeResult{Model: model, RMS: rms}, nil
}

// InitialKnee estimates the knee as the intersection of robust line fits to
// the two branches. The branches are disjoint in both coordinates (steep
// points sit right of the knee, shallow points above it), so a median split
// separates them well even with erroneous points present.
func InitialKnee(points []Vec2, a, b Vec2) Vec2 {
	fallback := Vec2{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
	if len(points) < 4 {
		return fallback
	}
	xs := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.X
	}
	xMed := median(xs)
	var steep, shallow []Vec2
	for _, p := range points {
		if p.X > xMed {
			steep = append(steep, p)
		} else {
			shallow = append(shallow, p)
		}
	}
	if len(steep) < 2 || len(shallow) < 2 {
		return fallback
	}
	// Steep branch: fit x = f(y) (well-conditioned for near-vertical data).
	swapped := make([]Vec2, len(steep))
	for i, p := range steep {
		swapped[i] = Vec2{X: p.Y, Y: p.X}
	}
	c1, d1, err1 := TheilSen(swapped) // x = c1 + d1·y
	c2, d2, err2 := TheilSen(shallow) // y = c2 + d2·x
	if err1 != nil || err2 != nil {
		return fallback
	}
	// Solve x = c1 + d1·y, y = c2 + d2·x.
	den := 1 - d1*d2
	if math.Abs(den) < 1e-12 {
		return fallback
	}
	x := (c1 + d1*c2) / den
	y := c2 + d2*x
	if math.IsNaN(x) || math.IsNaN(y) {
		return fallback
	}
	return Vec2{X: x, Y: y}
}
