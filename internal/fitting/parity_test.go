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

// refDist is Polyline2.Dist through math.Min.
func refDist(p Polyline2, q Vec2) float64 {
	return math.Min(segDist(q, p.A, p.K), segDist(q, p.B, p.K))
}

// refFitKnee is FitKnee before its Nelder–Mead objective stopped building
// a residual vector per evaluation, on refDist.
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
	xLM, err := LevMar(resid, x0, LMOptions{})
	if err != nil {
		xLM = x0
	}
	obj := func(x []float64) float64 {
		r := resid(x)
		return dot(r, r)
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
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return vals[rng.Intn(len(vals))]
		}
		return 100 * rng.NormFloat64()
	}
	for trial := 0; trial < 20000; trial++ {
		p := Polyline2{A: Vec2{pick(), pick()}, K: Vec2{pick(), pick()}, B: Vec2{pick(), pick()}}
		q := Vec2{pick(), pick()}
		if got, want := p.Dist(q), refDist(p, q); !sameBits(got, want) && !(got != got && want != want) {
			t.Fatalf("Dist(%+v, %+v) = %v, math.Min form %v", p, q, got, want)
		}
	}
}

func TestFitKneeMatchesReference(t *testing.T) {
	rng := xrand.New(14)
	for trial := 0; trial < 60; trial++ {
		truth := Polyline2{
			A: Vec2{40 + 30*rng.Float64(), 1},
			K: Vec2{30 + 30*rng.Float64(), 30 + 20*rng.Float64()},
			B: Vec2{1, 40 + 30*rng.Float64()},
		}
		pts := syntheticPolylinePoints(truth, 20+rng.Intn(100), 2*rng.Float64(), uint64(100+trial))
		init := InitialKnee(pts, truth.A, truth.B)
		got, err := FitKnee(pts, truth.A, truth.B, init)
		want, rerr := refFitKnee(pts, truth.A, truth.B, init)
		if err != nil || rerr != nil {
			t.Fatalf("trial %d: err %v, reference err %v", trial, err, rerr)
		}
		if !sameBits(got.Model.K.X, want.Model.K.X) || !sameBits(got.Model.K.Y, want.Model.K.Y) || !sameBits(got.RMS, want.RMS) {
			t.Fatalf("trial %d: FitKnee %+v, reference %+v", trial, got, want)
		}
	}
}
