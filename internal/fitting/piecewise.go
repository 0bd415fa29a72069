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
	d := newKneeDist(p)
	return d.at(q)
}

// kneeSeg is the segment from anchor a to the knee, with its direction and
// squared length computed once per knee position rather than once per
// point.
type kneeSeg struct {
	a        Vec2
	abx, aby float64
	l2       float64
}

func newKneeSeg(a, k Vec2) kneeSeg {
	abx, aby := k.X-a.X, k.Y-a.Y
	return kneeSeg{a: a, abx: abx, aby: aby, l2: abx*abx + aby*aby}
}

// finite reports whether the segment's squared length is finite and
// positive, the case offset serves.
func (s *kneeSeg) finite() bool { return s.l2 > 0 && s.l2 <= math.MaxFloat64 }

// offset returns q minus the segment's point nearest to q: the vector whose
// length is the distance from q to the segment. The segment must be
// finite. The projection parameter t = num/l2 is clamped to [0, 1]; a num
// outside (0, l2) can only clamp, so the division is skipped unless num is
// NaN. That changes at most the sign of a zero t, and so of a zero offset
// component, which neither math.Hypot nor a square sees.
func (s *kneeSeg) offset(q Vec2) (ox, oy float64) {
	num := (q.X-s.a.X)*s.abx + (q.Y-s.a.Y)*s.aby
	t := 1.0
	if !(num >= s.l2) {
		t = 0
		if !(num <= 0) { // num in (0, l2), or NaN
			t = num / s.l2
		}
	}
	return q.X - (s.a.X + t*s.abx), q.Y - (s.a.Y + t*s.aby)
}

// offsetAny is offset for any segment. On a zero-length segment the offset
// is q−a; on an infinite or NaN one the projection divides and clamps
// whatever the numerator.
func (s *kneeSeg) offsetAny(q Vec2) (ox, oy float64) {
	if s.finite() {
		return s.offset(q)
	}
	dx, dy := q.X-s.a.X, q.Y-s.a.Y
	if s.l2 == 0 {
		return dx, dy
	}
	t := (dx*s.abx + dy*s.aby) / s.l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	px := s.a.X + t*s.abx
	py := s.a.Y + t*s.aby
	return q.X - px, q.Y - py
}

// kneeDist is the knee model's distance field at one knee position. The
// fit's objective and its residuals both evaluate through it.
type kneeDist struct {
	steep, shallow kneeSeg
	finite         bool // both segments are finite
}

func newKneeDist(p Polyline2) kneeDist {
	d := kneeDist{steep: newKneeSeg(p.A, p.K), shallow: newKneeSeg(p.B, p.K)}
	d.finite = d.steep.finite() && d.shallow.finite()
	return d
}

// at returns the distance from q to the nearer segment: the min of the two
// segments' math.Hypot distances, bit for bit. It calls math.Hypot once
// when one segment is clearly the nearer, twice otherwise.
func (d *kneeDist) at(q Vec2) float64 {
	var x1, y1, x2, y2 float64
	if d.finite {
		x1, y1 = d.steep.offset(q)
		x2, y2 = d.shallow.offset(q)
	} else {
		x1, y1 = d.steep.offsetAny(q)
		x2, y2 = d.shallow.offsetAny(q)
	}
	s1 := x1*x1 + y1*y1
	s2 := x2*x2 + y2*y2
	switch {
	case clearlyBelow(s1, s2):
		return math.Hypot(x1, y1)
	case clearlyBelow(s2, s1):
		return math.Hypot(x2, y2)
	}
	// The builtin min has math.Min's NaN and signed-zero rules, inlined.
	return min(math.Hypot(x1, y1), math.Hypot(x2, y2))
}

// clearlyBelow reports whether the squared offset s lies below the finite,
// normal squared offset f by more than a relative 2⁻²⁰. math.Hypot and the
// squares each carry a few ulps of relative error, and a square that
// underflows at most 2⁻¹⁰⁷⁵ absolute, a relative 2⁻⁵³ of a normal f. So
// Hypot of s's offset is then strictly the smaller distance: exactly what
// min would pick.
func clearlyBelow(s, f float64) bool {
	return f >= 0x1p-1022 && f <= math.MaxFloat64 && s < f*(1-0x1p-20)
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
	resid := func(x, r []float64) {
		d := newKneeDist(Polyline2{A: a, K: Vec2{x[0], x[1]}, B: b})
		for i, p := range points {
			r[i] = d.at(p)
		}
	}
	x0 := []float64{init.X, init.Y}
	xLM, err := LevMar(resid, len(points), x0, LMOptions{})
	if err != nil {
		xLM = x0
	}
	// The same sum as dot over the residuals, without the residual vector.
	obj := func(x []float64) float64 {
		d := newKneeDist(Polyline2{A: a, K: Vec2{x[0], x[1]}, B: b})
		var s float64
		for _, p := range points {
			v := d.at(p)
			s += v * v
		}
		return s
	}
	xNM, fNM, err := NelderMead(obj, xLM, NMOptions{Step: 2})
	if err != nil {
		return FitKneeResult{}, err
	}
	// fNM is obj(xNM): the objective is a pure function of the knee.
	best, fBest := xLM, obj(xLM)
	if fNM < fBest {
		best, fBest = xNM, fNM
	}
	model := Polyline2{A: a, K: Vec2{best[0], best[1]}, B: b}
	rms := math.Sqrt(fBest / float64(len(points)))
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
	xp := floats.Get(len(points))
	defer floats.Put(xp)
	xs := *xp
	nanFree := true
	for i, p := range points {
		xs[i] = p.X
		nanFree = nanFree && p.X == p.X
	}
	xMed := medianOf(xs, nanFree)
	// One pooled buffer holds both branches in point order: the steep
	// branch first, swapped to fit x = f(y) (well-conditioned for
	// near-vertical data), then the shallow branch.
	bp := vecs.Get(len(points))
	defer vecs.Put(bp)
	ns := 0
	for _, p := range points {
		if p.X > xMed {
			(*bp)[ns] = Vec2{X: p.Y, Y: p.X}
			ns++
		}
	}
	steep, shallow := (*bp)[:ns], (*bp)[ns:ns]
	for _, p := range points {
		if !(p.X > xMed) {
			shallow = append(shallow, p)
		}
	}
	if len(steep) < 2 || len(shallow) < 2 {
		return fallback
	}
	c1, d1, err1 := TheilSen(steep)   // x = c1 + d1·y
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
