package fitting

import (
	"errors"
	"math"
	"sort"
	"testing"

	"github.com/fastvg/fastvg/internal/xrand"
)

// refMedian is the sort-based median TheilSen and InitialKnee used before
// selection: copy, sort.Float64s, pick the middle (or average the two).
func refMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5*s[n/2-1] + 0.5*s[n/2]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	return medianInPlace(append([]float64(nil), xs...))
}

// refTheilSen is TheilSen before the preallocated buffer and in-place
// selection: a growing slope slice and two sort-based medians.
func refTheilSen(pts []Vec2) (a, b float64, err error) {
	if len(pts) < 2 {
		return 0, 0, errors.New("fitting: need at least 2 points")
	}
	var slopes []float64
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			dx := pts[j].X - pts[i].X
			if dx == 0 {
				continue
			}
			slopes = append(slopes, (pts[j].Y-pts[i].Y)/dx)
		}
	}
	if len(slopes) == 0 {
		return 0, 0, errors.New("fitting: all points share one x value")
	}
	b = refMedian(slopes)
	inters := make([]float64, len(pts))
	for i, p := range pts {
		inters[i] = p.Y - b*p.X
	}
	a = refMedian(inters)
	return a, b, nil
}

// refSegDist is segDist as the knee fit computed it before it shared one
// evaluator between the objective and the residuals: a division and a
// math.Hypot for every segment of every point.
func refSegDist(q, a, b Vec2) float64 {
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

// refDist is Polyline2.Dist through math.Min and two refSegDist calls.
func refDist(p Polyline2, q Vec2) float64 {
	return math.Min(refSegDist(q, p.A, p.K), refSegDist(q, p.B, p.K))
}

// refFitKnee is FitKnee before its Nelder–Mead objective stopped building
// a residual vector per evaluation, on refDist and the allocating
// optimisers below.
func refFitKnee(points []Vec2, a, b, init Vec2) (FitKneeResult, error) {
	if len(points) < 2 {
		return FitKneeResult{}, errors.New("fitting: need at least 2 transition points")
	}
	resid := func(x []float64) []float64 {
		model := Polyline2{A: a, K: Vec2{x[0], x[1]}, B: b}
		out := make([]float64, len(points))
		for i, p := range points {
			out[i] = refDist(model, p)
		}
		return out
	}
	x0 := []float64{init.X, init.Y}
	xLM, err := refLevMar(resid, x0, LMOptions{})
	if err != nil {
		xLM = x0
	}
	obj := func(x []float64) float64 {
		r := resid(x)
		return refDot(r, r)
	}
	xNM, _, err := refNelderMead(obj, xLM, NMOptions{Step: 2})
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

// refNelderMead is NelderMead as it was before it stopped allocating: fresh
// centroid, reflection, expansion and contraction vectors every iteration
// and the vertices ordered by sort.Slice.
func refNelderMead(f func([]float64) float64, x0 []float64, opt NMOptions) ([]float64, float64, error) {
	n := len(x0)
	if n == 0 {
		return nil, 0, errors.New("fitting: empty start point")
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 400 * n
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-9
	}
	if opt.Step == 0 {
		opt.Step = 1
	}
	type vertex struct {
		x []float64
		v float64
	}
	simplex := make([]vertex, n+1)
	for i := range simplex {
		x := append([]float64(nil), x0...)
		if i > 0 {
			x[i-1] += opt.Step
		}
		simplex[i] = vertex{x: x, v: f(x)}
	}
	const (
		alpha = 1.0
		gamma = 2.0
		rho   = 0.5
		sigma = 0.5
	)
	for iter := 0; iter < opt.MaxIter; iter++ {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].v < simplex[j].v })
		if simplex[n].v-simplex[0].v < opt.Tol {
			break
		}
		cen := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := range cen {
				cen[j] += simplex[i].x[j]
			}
		}
		for j := range cen {
			cen[j] /= float64(n)
		}
		worst := simplex[n]
		refl := make([]float64, n)
		for j := range refl {
			refl[j] = cen[j] + alpha*(cen[j]-worst.x[j])
		}
		fr := f(refl)
		switch {
		case fr < simplex[0].v:
			exp := make([]float64, n)
			for j := range exp {
				exp[j] = cen[j] + gamma*(refl[j]-cen[j])
			}
			if fe := f(exp); fe < fr {
				simplex[n] = vertex{exp, fe}
			} else {
				simplex[n] = vertex{refl, fr}
			}
		case fr < simplex[n-1].v:
			simplex[n] = vertex{refl, fr}
		default:
			con := make([]float64, n)
			for j := range con {
				con[j] = cen[j] + rho*(worst.x[j]-cen[j])
			}
			if fc := f(con); fc < worst.v {
				simplex[n] = vertex{con, fc}
			} else {
				for i := 1; i <= n; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].v = f(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].v < simplex[j].v })
	return simplex[0].x, simplex[0].v, nil
}

// refLevMar is LevMar as it was before it stopped allocating: fresh
// residual, Jacobian, normal-equation and trial slices every step.
func refLevMar(residuals func([]float64) []float64, x0 []float64, opt LMOptions) ([]float64, error) {
	n := len(x0)
	if n == 0 {
		return nil, errors.New("fitting: empty start point")
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 100
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-10
	}
	if opt.InitMu == 0 {
		opt.InitMu = 1e-3
	}
	if opt.JacobEps == 0 {
		opt.JacobEps = 1e-6
	}
	x := append([]float64(nil), x0...)
	r := residuals(x)
	m := len(r)
	if m == 0 {
		return nil, errors.New("fitting: no residuals")
	}
	cost := refDot(r, r)
	mu := opt.InitMu
	jac := make([][]float64, m)
	for i := range jac {
		jac[i] = make([]float64, n)
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		for j := 0; j < n; j++ {
			h := opt.JacobEps * math.Max(1, math.Abs(x[j]))
			xp := append([]float64(nil), x...)
			xp[j] += h
			rp := residuals(xp)
			if len(rp) != m {
				return nil, errors.New("fitting: residual dimension changed")
			}
			for i := 0; i < m; i++ {
				jac[i][j] = (rp[i] - r[i]) / h
			}
		}
		jtj := make([][]float64, n)
		jtr := make([]float64, n)
		for a := 0; a < n; a++ {
			jtj[a] = make([]float64, n)
			for b := 0; b < n; b++ {
				var s float64
				for i := 0; i < m; i++ {
					s += jac[i][a] * jac[i][b]
				}
				jtj[a][b] = s
			}
			var s float64
			for i := 0; i < m; i++ {
				s += jac[i][a] * r[i]
			}
			jtr[a] = -s
		}
		improved := false
		for tries := 0; tries < 30; tries++ {
			lhs := make([][]float64, n)
			for a := 0; a < n; a++ {
				lhs[a] = append([]float64(nil), jtj[a]...)
				lhs[a][a] += mu * math.Max(jtj[a][a], 1e-12)
			}
			delta, err := refSolveDense(lhs, jtr)
			if err != nil {
				mu *= 10
				continue
			}
			xNew := make([]float64, n)
			for j := range xNew {
				xNew[j] = x[j] + delta[j]
			}
			rNew := residuals(xNew)
			cNew := refDot(rNew, rNew)
			if cNew < cost {
				relImp := (cost - cNew) / math.Max(cost, 1e-300)
				x, r, cost = xNew, rNew, cNew
				mu = math.Max(mu/3, 1e-12)
				improved = true
				if relImp < opt.Tol {
					return x, nil
				}
				break
			}
			mu *= 10
			if mu > 1e12 {
				return x, nil
			}
		}
		if !improved {
			return x, nil
		}
	}
	return x, nil
}

func refDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// refSolveDense is solveDense as it was: Gaussian elimination with partial
// pivoting on a freshly built augmented matrix.
func refSolveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for rIdx := col + 1; rIdx < n; rIdx++ {
			if math.Abs(m[rIdx][col]) > math.Abs(m[piv][col]) {
				piv = rIdx
			}
		}
		if math.Abs(m[piv][col]) < 1e-300 {
			return nil, errors.New("fitting: singular system")
		}
		m[col], m[piv] = m[piv], m[col]
		for rIdx := col + 1; rIdx < n; rIdx++ {
			f := m[rIdx][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[rIdx][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// sameValue is == with NaN matching NaN. It deliberately lets +0 match −0:
// which zero a sort leaves in the middle depends on its swap order.
func sameValue(x, y float64) bool { return x == y || (x != x && y != y) }

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// specialValues draws from a small pool heavy in ties, signed zeros,
// infinities and NaN, mixed with ordinary numbers.
func specialValues(rng *xrand.Rand, n int) []float64 {
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324}
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(4) {
		case 0:
			xs[i] = rng.NormFloat64()
		case 1:
			xs[i] = float64(rng.Intn(5) - 2) // small integers: many duplicates
		default:
			xs[i] = pool[rng.Intn(len(pool))]
		}
	}
	return xs
}

func TestMedianInPlaceMatchesSort(t *testing.T) {
	rng := xrand.New(11)
	lengths := make([]int, 0, 70)
	for n := 1; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1769, 1770, 2047, 3001, 4096)
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			var xs []float64
			switch trial % 4 {
			case 0:
				xs = specialValues(rng, n)
			case 1: // plain random
				xs = make([]float64, n)
				for i := range xs {
					xs[i] = rng.NormFloat64()
				}
			case 2: // sorted, then reversed half the time: classic worst cases
				xs = make([]float64, n)
				for i := range xs {
					xs[i] = float64(i / 3)
				}
				if trial%8 == 2 {
					for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
						xs[i], xs[j] = xs[j], xs[i]
					}
				}
			default: // all equal
				xs = make([]float64, n)
				for i := range xs {
					xs[i] = 7
				}
			}
			want := refMedian(xs)
			s := append([]float64(nil), xs...)
			if got := medianInPlace(s); !sameValue(got, want) {
				t.Fatalf("n=%d trial=%d: median %v, sort-based %v (input %v)", n, trial, got, want, xs)
			}
			if got := median(xs); !sameValue(got, want) {
				t.Fatalf("n=%d trial=%d: median (copying) %v, sort-based %v", n, trial, got, want)
			}
		}
	}
}

// TestSelectKthMatchesSort checks every rank of short inputs, including with
// a spent round budget, which must fall back to sorting and stay exact.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := xrand.New(12)
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 10; trial++ {
			xs := specialValues(rng, n)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for k := 0; k < n; k++ {
				for _, rounds := range []int{0, 1, 2, 2 * 64} {
					s := append([]float64(nil), xs...)
					selectKth(s, k, rounds)
					if !sameValue(s[k], sorted[k]) {
						t.Fatalf("n=%d k=%d rounds=%d: s[k]=%v, sorted %v", n, k, rounds, s[k], sorted[k])
					}
					for i := 0; i < k; i++ {
						if less(s[k], s[i]) {
							t.Fatalf("n=%d k=%d rounds=%d: s[%d]=%v orders after s[k]=%v", n, k, rounds, i, s[i], s[k])
						}
					}
					for i := k + 1; i < n; i++ {
						if less(s[i], s[k]) {
							t.Fatalf("n=%d k=%d rounds=%d: s[%d]=%v orders before s[k]=%v", n, k, rounds, i, s[i], s[k])
						}
					}
				}
			}
		}
	}
}

// randomPoints returns n noisy points along a random line with a share of
// wild outliers and repeated x values (the pairs TheilSen skips).
func randomPoints(rng *xrand.Rand, n int) []Vec2 {
	a, b := 100*rng.Float64()-50, 6*rng.Float64()-3
	pts := make([]Vec2, n)
	for i := range pts {
		x := 100 * rng.Float64()
		if i > 0 && rng.Intn(8) == 0 {
			x = pts[rng.Intn(i)].X
		}
		y := a + b*x + rng.NormFloat64()
		if rng.Intn(5) == 0 {
			y = 200*rng.Float64() - 100
		}
		pts[i] = Vec2{x, y}
	}
	return pts
}

func TestTheilSenMatchesSortReference(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 400; trial++ {
		pts := randomPoints(rng, 2+rng.Intn(90))
		a, b, err := TheilSen(pts)
		ra, rb, rerr := refTheilSen(pts)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("trial %d: err %v, reference err %v", trial, err, rerr)
		}
		if !sameBits(a, ra) || !sameBits(b, rb) {
			t.Fatalf("trial %d (%d points): TheilSen (%v, %v), reference (%v, %v)", trial, len(pts), a, b, ra, rb)
		}
	}
}

func TestDistMatchesMathMin(t *testing.T) {
	rng := xrand.New(15)
	vals := []float64{0, math.Copysign(0, -1), 1, -3, math.Inf(1), math.Inf(-1), math.NaN()}
	// Scales whose squares overflow, underflow to subnormals, or vanish.
	scales := []float64{100, 1e150, 1e-155, 1e-160, 1e-300}
	scale := 100.0
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return vals[rng.Intn(len(vals))]
		}
		return scale * rng.NormFloat64()
	}
	// Squares that land in the subnormals round separately: here the
	// farther segment's squared offset, 10.49+10.49 units of 2⁻¹⁰⁷⁴, rounds
	// to 20 units and the nearer one's, 20.6 units, to 21.
	u := math.Ldexp(1, -537)
	x1, x2 := math.Sqrt(10.49)*u, math.Sqrt(20.6)*u
	p, q := Polyline2{A: Vec2{x1, x1}, K: Vec2{1, 1}, B: Vec2{x2, 0}}, Vec2{0, 0}
	if got, want := p.Dist(q), refDist(p, q); !sameBits(got, want) {
		t.Fatalf("Dist with subnormal squares = %v, math.Min form %v", got, want)
	}
	for trial := 0; trial < 20000; trial++ {
		scale = scales[trial%len(scales)]
		p := Polyline2{A: Vec2{pick(), pick()}, K: Vec2{pick(), pick()}, B: Vec2{pick(), pick()}}
		q := Vec2{pick(), pick()}
		if got, want := p.Dist(q), refDist(p, q); !sameBits(got, want) && !(got != got && want != want) {
			t.Fatalf("Dist(%+v, %+v) = %v, math.Min form %v", p, q, got, want)
		}
	}
}

// kneeCase is one knee fit of TestFitKneeMatchesReference.
type kneeCase struct {
	kind       string
	pts        []Vec2
	a, b, init Vec2
}

// kneeCases draws the knee fits the parity test compares: noisy points as
// the surrogate passes them, integer points as core passes them, outliers,
// starting knees far outside the window, zero-length segments, signed
// zeros and coordinates whose squares overflow.
func kneeCases(rng *xrand.Rand, perKind int) []kneeCase {
	truth := func() Polyline2 {
		return Polyline2{
			A: Vec2{40 + 30*rng.Float64(), 1},
			K: Vec2{30 + 30*rng.Float64(), 30 + 20*rng.Float64()},
			B: Vec2{1, 40 + 30*rng.Float64()},
		}
	}
	round := func(v Vec2) Vec2 { return Vec2{math.Round(v.X), math.Round(v.Y)} }
	negZero := math.Copysign(0, -1)
	var cases []kneeCase
	add := func(kind string, pts []Vec2, a, b, init Vec2) {
		cases = append(cases, kneeCase{kind, pts, a, b, init})
	}
	seed := uint64(100)
	points := func(m Polyline2, sigma float64) []Vec2 {
		seed++
		return syntheticPolylinePoints(m, 20+rng.Intn(100), sigma, seed)
	}
	for i := 0; i < perKind; i++ {
		m := truth()
		pts := points(m, 2*rng.Float64())
		add("noisy", pts, m.A, m.B, InitialKnee(pts, m.A, m.B))

		m = truth()
		m.A, m.B = round(m.A), round(m.B)
		pts = points(m, 3*rng.Float64())
		for j := range pts {
			pts[j] = round(pts[j])
		}
		add("integer", pts, m.A, m.B, InitialKnee(pts, m.A, m.B))

		m = truth()
		pts = points(m, rng.Float64())
		for j := range pts {
			if rng.Intn(4) == 0 {
				pts[j] = Vec2{100 * rng.Float64(), 100 * rng.Float64()}
			}
		}
		if i%2 == 0 {
			for j := range pts {
				pts[j] = round(pts[j])
			}
		}
		add("outliers", pts, m.A, m.B, InitialKnee(pts, m.A, m.B))

		m = truth()
		pts = points(m, rng.Float64())
		far := math.Pow(10, 2+6*rng.Float64())
		init := Vec2{m.K.X + far*rng.NormFloat64(), m.K.Y + far*rng.NormFloat64()}
		add("far-init", pts, m.A, m.B, init)

		m = truth()
		m.A, m.B = round(m.A), round(m.B)
		pts = points(m, rng.Float64())
		for j := range pts {
			pts[j] = round(pts[j])
		}
		switch i % 4 {
		case 0: // the steep segment starts at zero length
			add("zero-length", pts, m.A, m.B, m.A)
		case 1: // the shallow segment starts at zero length
			add("zero-length", pts, m.A, m.B, m.B)
		case 2: // both anchors coincide with the knee
			add("zero-length", pts, m.A, m.A, m.A)
		default: // every point sits on an anchor
			for j := range pts {
				if j%2 == 0 {
					pts[j] = m.A
				} else {
					pts[j] = m.B
				}
			}
			add("zero-length", pts, m.A, m.B, InitialKnee(pts, m.A, m.B))
		}

		m = truth()
		pts = points(m, rng.Float64())
		zeros := []float64{0, negZero}
		z := func() float64 { return zeros[rng.Intn(2)] }
		for j := range pts {
			switch rng.Intn(6) {
			case 0:
				pts[j].X = z()
			case 1:
				pts[j].Y = z()
			case 2:
				pts[j] = Vec2{z(), z()}
			}
		}
		a, b := m.A, m.B
		if i%2 == 0 {
			a, b = Vec2{a.X, z()}, Vec2{z(), b.Y}
		}
		init = InitialKnee(pts, a, b)
		if i%3 == 0 {
			init = Vec2{z(), z()}
		}
		add("signed-zero", pts, a, b, init)

		// Non-finite objectives run Nelder–Mead to its iteration cap, so
		// these fits keep to a few points.
		m = truth()
		pts = points(m, rng.Float64())[:4+rng.Intn(12)]
		for j := range pts {
			if rng.Intn(3) == 0 {
				pts[j] = Vec2{1e200 * rng.NormFloat64(), pts[j].Y}
			} else if rng.Intn(5) == 0 {
				pts[j] = Vec2{pts[j].X, -1e200}
			}
		}
		init = InitialKnee(pts, m.A, m.B)
		switch i % 3 {
		case 1:
			init = Vec2{1e200, init.Y}
		case 2:
			init = Vec2{init.X, -1e200}
		}
		add("huge", pts, m.A, m.B, init)
	}
	return cases
}

// TestFitKneeMatchesReference compares FitKnee with the reference built on
// copies of the optimisers and the distance as they were before FitKnee's
// fixed costs were cut: every knee and RMS must match bit for bit.
func TestFitKneeMatchesReference(t *testing.T) {
	cases := kneeCases(xrand.New(14), 300)
	if len(cases) < 2000 {
		t.Fatalf("%d knee fits, want at least 2000", len(cases))
	}
	for i, c := range cases {
		got, err := FitKnee(c.pts, c.a, c.b, c.init)
		want, rerr := refFitKnee(c.pts, c.a, c.b, c.init)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("case %d (%s): err %v, reference err %v", i, c.kind, err, rerr)
		}
		if !sameBits(got.Model.K.X, want.Model.K.X) || !sameBits(got.Model.K.Y, want.Model.K.Y) || !sameBits(got.RMS, want.RMS) {
			t.Fatalf("case %d (%s, %d points, init %+v): FitKnee %+v, reference %+v", i, c.kind, len(c.pts), c.init, got, want)
		}
	}
}
