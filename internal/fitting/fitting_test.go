package fitting

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/fastvg/fastvg/internal/xrand"
)

func TestLinearFitExact(t *testing.T) {
	pts := []Vec2{{0, 1}, {1, 3}, {2, 5}, {3, 7}}
	a, b, err := LinearFit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1) > 1e-12 || math.Abs(b-2) > 1e-12 {
		t.Errorf("fit = %v + %v x, want 1 + 2x", a, b)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]Vec2{{1, 1}}); err == nil {
		t.Error("accepted single point")
	}
	if _, _, err := LinearFit([]Vec2{{1, 1}, {1, 2}, {1, 3}}); err == nil {
		t.Error("accepted vertical data")
	}
}

func TestLinearFitRecoversNoisyLine(t *testing.T) {
	rng := xrand.New(1)
	var pts []Vec2
	for i := 0; i < 200; i++ {
		x := float64(i) * 0.1
		pts = append(pts, Vec2{x, 4 - 0.5*x + 0.05*rng.NormFloat64()})
	}
	a, b, err := LinearFit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-4) > 0.05 || math.Abs(b+0.5) > 0.01 {
		t.Errorf("fit = %v + %v x, want 4 - 0.5x", a, b)
	}
}

func TestTheilSenRobustToOutliers(t *testing.T) {
	var pts []Vec2
	for i := 0; i < 20; i++ {
		x := float64(i)
		pts = append(pts, Vec2{x, 2 + 3*x})
	}
	// 25% wild outliers.
	for i := 0; i < 5; i++ {
		pts = append(pts, Vec2{float64(i), 500})
	}
	a, b, err := TheilSen(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-3) > 0.2 {
		t.Errorf("Theil-Sen slope = %v, want ~3 despite outliers", b)
	}
	if math.Abs(a-2) > 2 {
		t.Errorf("Theil-Sen intercept = %v, want ~2", a)
	}
}

func TestTheilSenDegenerate(t *testing.T) {
	if _, _, err := TheilSen([]Vec2{{1, 1}, {1, 5}}); err == nil {
		t.Error("accepted all-same-x data")
	}
}

func TestTLSLineVertical(t *testing.T) {
	pts := []Vec2{{5, 0}, {5, 1}, {5, 2}, {5.001, 3}}
	l, err := TLSLine(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Dir.X) > 0.01 {
		t.Errorf("near-vertical TLS direction = %+v", l.Dir)
	}
	if d := l.Dist(Vec2{7, 1.5}); math.Abs(d-2) > 0.02 {
		t.Errorf("distance to vertical line = %v, want ~2", d)
	}
}

func TestTLSLineMatchesKnownSlope(t *testing.T) {
	rng := xrand.New(2)
	for _, m := range []float64{-8, -1, -0.12, 2} {
		var pts []Vec2
		for i := 0; i < 100; i++ {
			x := float64(i) * 0.3
			pts = append(pts, Vec2{x + 0.01*rng.NormFloat64(), 3 + m*x + 0.01*rng.NormFloat64()})
		}
		l, err := TLSLine(pts)
		if err != nil {
			t.Fatal(err)
		}
		if gotA, wantA := math.Atan(l.Slope()), math.Atan(m); math.Abs(gotA-wantA) > 0.01 {
			t.Errorf("m=%v: TLS slope %v (Δangle %v rad)", m, l.Slope(), math.Abs(gotA-wantA))
		}
	}
}

func TestTLSLineErrors(t *testing.T) {
	if _, err := TLSLine([]Vec2{{1, 2}}); err == nil {
		t.Error("accepted single point")
	}
	if _, err := TLSLine([]Vec2{{1, 2}, {1, 2}}); err == nil {
		t.Error("accepted coincident points")
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1) + 5
	}
	x, v, err := NelderMead(f, []float64{0, 0}, NMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-3 || math.Abs(x[1]+1) > 1e-3 {
		t.Errorf("NM minimum at %v, want (3,-1)", x)
	}
	if math.Abs(v-5) > 1e-5 {
		t.Errorf("NM value %v, want 5", v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _, err := NelderMead(f, []float64{-1.2, 1}, NMOptions{MaxIter: 5000, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-2 || math.Abs(x[1]-1) > 1e-2 {
		t.Errorf("Rosenbrock minimum at %v, want (1,1)", x)
	}
}

func TestNelderMeadEmptyStart(t *testing.T) {
	if _, _, err := NelderMead(func([]float64) float64 { return 0 }, nil, NMOptions{}); err == nil {
		t.Error("accepted empty start")
	}
}

func TestLevMarExponentialFit(t *testing.T) {
	// Fit y = p0·exp(p1·x) to clean synthetic data.
	xs := make([]float64, 30)
	ys := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i) * 0.1
		ys[i] = 2.5 * math.Exp(-0.8*xs[i])
	}
	resid := func(p, r []float64) {
		for i := range xs {
			r[i] = p[0]*math.Exp(p[1]*xs[i]) - ys[i]
		}
	}
	p, err := LevMar(resid, len(xs), []float64{1, -0.1}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-2.5) > 1e-4 || math.Abs(p[1]+0.8) > 1e-4 {
		t.Errorf("LM fit = %v, want (2.5, -0.8)", p)
	}
}

func TestLevMarLinearProblem(t *testing.T) {
	resid := func(p, r []float64) {
		r[0], r[1] = p[0]-4, 2*(p[1]+7)
	}
	p, err := LevMar(resid, 2, []float64{0, 0}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-4) > 1e-6 || math.Abs(p[1]+7) > 1e-6 {
		t.Errorf("LM = %v, want (4,-7)", p)
	}
}

func TestSolveDense(t *testing.T) {
	aug := []float64{2, 1, 5, 1, 3, 10} // [A | b]
	x := make([]float64, 2)
	if err := solveDense(aug, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solve = %v, want (1,3)", x)
	}
	if err := solveDense([]float64{1, 1, 1, 1, 1, 2}, x); err == nil {
		t.Error("accepted singular system")
	}
}

func TestPolylineSlopes(t *testing.T) {
	p := Polyline2{A: Vec2{60, 0}, K: Vec2{55, 40}, B: Vec2{0, 47}}
	if got := p.SteepSlope(); math.Abs(got-(-8)) > 1e-12 {
		t.Errorf("steep slope = %v, want -8", got)
	}
	if got := p.ShallowSlope(); math.Abs(got-(40.0-47.0)/55.0) > 1e-12 {
		t.Errorf("shallow slope = %v", got)
	}
}

func TestPolylineDist(t *testing.T) {
	p := Polyline2{A: Vec2{10, 0}, K: Vec2{10, 10}, B: Vec2{0, 10}}
	if d := p.Dist(Vec2{12, 5}); math.Abs(d-2) > 1e-12 {
		t.Errorf("dist to steep segment = %v, want 2", d)
	}
	if d := p.Dist(Vec2{5, 13}); math.Abs(d-3) > 1e-12 {
		t.Errorf("dist to shallow segment = %v, want 3", d)
	}
	if d := p.Dist(Vec2{10, 10}); d != 0 {
		t.Errorf("dist at knee = %v, want 0", d)
	}
}

func TestSegDistEndpoints(t *testing.T) {
	segDist := func(q, a, b Vec2) float64 {
		s := newKneeSeg(a, b)
		return math.Hypot(s.offset(q))
	}
	if d := segDist(Vec2{0, 5}, Vec2{0, 0}, Vec2{0, 0}); math.Abs(d-5) > 1e-12 {
		t.Errorf("degenerate segment distance = %v, want 5", d)
	}
	if d := segDist(Vec2{-3, 0}, Vec2{0, 0}, Vec2{10, 0}); math.Abs(d-3) > 1e-12 {
		t.Errorf("beyond-endpoint distance = %v, want 3", d)
	}
}

// syntheticPolylinePoints samples points along a known polyline with noise.
func syntheticPolylinePoints(model Polyline2, n int, sigma float64, seed uint64) []Vec2 {
	rng := xrand.New(seed)
	var pts []Vec2
	for i := 0; i < n/2; i++ {
		t := float64(i) / float64(n/2-1)
		x := model.A.X + t*(model.K.X-model.A.X)
		y := model.A.Y + t*(model.K.Y-model.A.Y)
		pts = append(pts, Vec2{x + sigma*rng.NormFloat64(), y + sigma*rng.NormFloat64()})
	}
	for i := 0; i < n/2; i++ {
		t := float64(i) / float64(n/2-1)
		x := model.B.X + t*(model.K.X-model.B.X)
		y := model.B.Y + t*(model.K.Y-model.B.Y)
		pts = append(pts, Vec2{x + sigma*rng.NormFloat64(), y + sigma*rng.NormFloat64()})
	}
	return pts
}

func TestFitKneeRecoversCleanModel(t *testing.T) {
	truth := Polyline2{A: Vec2{60, 1}, K: Vec2{54, 42}, B: Vec2{1, 49}}
	pts := syntheticPolylinePoints(truth, 40, 0, 3)
	res, err := FitKnee(pts, truth.A, truth.B, Vec2{40, 30})
	if err != nil {
		t.Fatal(err)
	}
	if math.Hypot(res.Model.K.X-truth.K.X, res.Model.K.Y-truth.K.Y) > 0.5 {
		t.Errorf("fitted knee %+v, want %+v", res.Model.K, truth.K)
	}
	if res.RMS > 0.1 {
		t.Errorf("clean-fit RMS = %v", res.RMS)
	}
}

func TestFitKneeNoisy(t *testing.T) {
	truth := Polyline2{A: Vec2{60, 1}, K: Vec2{54, 42}, B: Vec2{1, 49}}
	pts := syntheticPolylinePoints(truth, 60, 0.8, 4)
	res, err := FitKnee(pts, truth.A, truth.B, InitialKnee(pts, truth.A, truth.B))
	if err != nil {
		t.Fatal(err)
	}
	if math.Hypot(res.Model.K.X-truth.K.X, res.Model.K.Y-truth.K.Y) > 3 {
		t.Errorf("fitted knee %+v too far from %+v", res.Model.K, truth.K)
	}
}

func TestFitKneeTooFewPoints(t *testing.T) {
	if _, err := FitKnee([]Vec2{{1, 1}}, Vec2{}, Vec2{}, Vec2{}); err == nil {
		t.Error("accepted single point")
	}
}

func TestInitialKneeReasonable(t *testing.T) {
	truth := Polyline2{A: Vec2{60, 1}, K: Vec2{54, 42}, B: Vec2{1, 49}}
	pts := syntheticPolylinePoints(truth, 40, 0.3, 5)
	k := InitialKnee(pts, truth.A, truth.B)
	if math.Hypot(k.X-truth.K.X, k.Y-truth.K.Y) > 8 {
		t.Errorf("initial knee %+v too far from truth %+v", k, truth.K)
	}
}

func TestInitialKneeFallback(t *testing.T) {
	a, b := Vec2{10, 0}, Vec2{0, 10}
	k := InitialKnee([]Vec2{{1, 1}, {2, 2}}, a, b)
	if k.X != 5 || k.Y != 5 {
		t.Errorf("fallback knee = %+v, want midpoint (5,5)", k)
	}
}

func TestMedianProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, v := range xs {
			if math.IsNaN(v) {
				return true
			}
		}
		m := median(xs)
		// At least half the values are ≤ m and at least half are ≥ m.
		var le, ge int
		for _, v := range xs {
			if v <= m {
				le++
			}
			if v >= m {
				ge++
			}
		}
		return 2*le >= len(xs) && 2*ge >= len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
