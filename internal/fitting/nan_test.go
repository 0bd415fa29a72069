package fitting

import (
	"errors"
	"math"
	"testing"

	"github.com/fastvg/fastvg/internal/xrand"
)

// raceEnabled is set in race builds, where sync.Pool drops items at random
// and allocation counts differ.
var raceEnabled bool

// theilSenNaNOrdered is TheilSen with both medians always taken in
// sort.Float64s order (NaN first), the path every input took before
// NaN-free inputs selected with a plain <.
func theilSenNaNOrdered(pts []Vec2) (a, b float64, err error) {
	n := len(pts)
	if n < 2 {
		return 0, 0, errors.New("fitting: need at least 2 points")
	}
	var slopes []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dx := pts[j].X - pts[i].X; dx != 0 {
				slopes = append(slopes, (pts[j].Y-pts[i].Y)/dx)
			}
		}
	}
	if len(slopes) == 0 {
		return 0, 0, errors.New("fitting: all points share one x value")
	}
	b = medianInPlace(slopes)
	inters := make([]float64, n)
	for i, p := range pts {
		inters[i] = p.Y - b*p.X
	}
	return medianInPlace(inters), b, nil
}

// nanTestPoints draws a point set of one of five kinds: integer pixel
// points with repeats (the fast pipeline's input), small integers heavy in
// duplicates and signed zeros, huge coordinates whose differences overflow,
// points at ±Inf that make NaN slopes, and noisy reals.
func nanTestPoints(rng *xrand.Rand, kind, n int) []Vec2 {
	negZero := math.Copysign(0, -1)
	pts := make([]Vec2, n)
	for i := range pts {
		switch kind {
		case 0:
			pts[i] = Vec2{float64(rng.Intn(100)), float64(rng.Intn(100))}
		case 1:
			vals := []float64{0, negZero, 1, -1, 2}
			pts[i] = Vec2{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
		case 2:
			pts[i] = Vec2{1e300 * float64(rng.Intn(7)-3), 1e305 * float64(rng.Intn(9)-4)}
		case 3:
			vals := []float64{math.Inf(1), math.Inf(-1), 0, negZero, 3, -7}
			pts[i] = Vec2{float64(rng.Intn(20)), vals[rng.Intn(len(vals))]}
			if rng.Intn(4) == 0 {
				pts[i].X = vals[rng.Intn(len(vals))]
			}
		default:
			pts[i] = Vec2{100 * rng.NormFloat64(), 100 * rng.NormFloat64()}
		}
	}
	return pts
}

// TestTheilSenNaNFreeMatchesNaNOrdered: selecting NaN-free slopes and
// intercepts with a plain < gives the NaN-ordered path's medians bit for
// bit, on inputs with NaN slopes or intercepts as well as without.
func TestTheilSenNaNFreeMatchesNaNOrdered(t *testing.T) {
	rng := xrand.New(30)
	var withNaN, without int
	for trial := 0; trial < 2500; trial++ {
		pts := nanTestPoints(rng, trial%5, 2+rng.Intn(70))
		a, b, err := TheilSen(pts)
		ra, rb, rerr := theilSenNaNOrdered(pts)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("trial %d: err %v, NaN-ordered err %v", trial, err, rerr)
		}
		if !sameBits(a, ra) || !sameBits(b, rb) {
			t.Fatalf("trial %d: TheilSen (%v, %v), NaN-ordered (%v, %v), points %v", trial, a, b, ra, rb, pts)
		}
		if err != nil {
			continue
		}
		if hasNaNSlope(pts) || math.IsNaN(a) {
			withNaN++
		} else {
			without++
		}
	}
	if withNaN < 300 || without < 1000 {
		t.Fatalf("%d fits saw a NaN slope or intercept and %d did not; the inputs miss a path", withNaN, without)
	}
}

// hasNaNSlope reports whether any pair of points makes a NaN slope.
func hasNaNSlope(pts []Vec2) bool {
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if dx := pts[j].X - pts[i].X; dx != 0 && math.IsNaN((pts[j].Y-pts[i].Y)/dx) {
				return true
			}
		}
	}
	return false
}

// TestMedianNaNFreeMatchesMedianInPlace compares the two selections
// directly, at every length up to 64, on NaN-free values heavy in ties,
// signed zeros, infinities and huge magnitudes.
func TestMedianNaNFreeMatchesMedianInPlace(t *testing.T) {
	rng := xrand.New(31)
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 40; trial++ {
			xs := specialValues(rng, n)
			for i, x := range xs {
				if x != x {
					xs[i] = math.Copysign(0, -1)
				}
			}
			want := medianInPlace(append([]float64(nil), xs...))
			if got := medianNaNFree(append([]float64(nil), xs...)); !sameBits(got, want) {
				t.Fatalf("n=%d trial=%d: NaN-free median %v, NaN-ordered %v (input %v)", n, trial, got, want, xs)
			}
		}
	}
}
