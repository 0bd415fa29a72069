// Package fitting provides the numerical optimisation used by the extraction
// pipelines: ordinary and robust line fits, a Nelder–Mead simplex, a
// Levenberg–Marquardt least-squares solver with numeric Jacobian (the
// stand-in for SciPy's curve_fit), and the paper's 2-piece-wise linear model
// whose free parameter is the knee — the transition lines' intersection.
package fitting

import (
	"errors"
	"math"
	"math/bits"
	"sort"

	"github.com/fastvg/fastvg/internal/scratch"
)

// Vec2 is a 2-D point.
type Vec2 struct {
	X, Y float64
}

// LinearFit returns (intercept a, slope b) of the least-squares line
// y = a + b·x through the points.
func LinearFit(pts []Vec2) (a, b float64, err error) {
	if len(pts) < 2 {
		return 0, 0, errors.New("fitting: need at least 2 points")
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(pts))
	for _, p := range pts {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		sxy += p.X * p.Y
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-30 {
		return 0, 0, errors.New("fitting: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b, nil
}

// TheilSen returns a robust (intercept, slope) estimate: the median of all
// pairwise slopes and the median of the per-point intercepts. It tolerates
// up to ~29% outliers, which is what the sweeps' erroneous points demand.
// One pooled buffer holds the slopes and then the intercepts; both medians
// are taken in place by selection, with a plain < when the values hold no
// NaN.
func TheilSen(pts []Vec2) (a, b float64, err error) {
	n := len(pts)
	if n < 2 {
		return 0, 0, errors.New("fitting: need at least 2 points")
	}
	bp := floats.Get(max(n*(n-1)/2, n))
	defer floats.Put(bp)
	buf := *bp
	m := 0
	nanFree := true
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := pts[j].X - pts[i].X
			if dx == 0 {
				continue
			}
			s := (pts[j].Y - pts[i].Y) / dx
			nanFree = nanFree && s == s
			buf[m] = s
			m++
		}
	}
	if m == 0 {
		return 0, 0, errors.New("fitting: all points share one x value")
	}
	b = medianOf(buf[:m], nanFree)
	inters := buf[:n]
	nanFree = true
	for i, p := range pts {
		c := p.Y - b*p.X
		nanFree = nanFree && c == c
		inters[i] = c
	}
	a = medianOf(inters, nanFree)
	return a, b, nil
}

// floats and vecs recycle the slices the fits use internally; no fit
// returns memory from them.
var (
	floats scratch.Slices[float64]
	vecs   scratch.Slices[Vec2]
)

// medianOf is medianInPlace, through medianNaNFree when the caller knows s
// holds no NaN.
func medianOf(s []float64, nanFree bool) float64 {
	if nanFree {
		return medianNaNFree(s)
	}
	return medianInPlace(s)
}

// medianInPlace returns the median of s in sort.Float64s order (NaN
// first), reordering s: the middle value, or the mean of the two middle
// values for even lengths, exactly as picking them from the sorted slice
// would give (up to the sign of a zero, which a sort leaves to its swap
// order too).
func medianInPlace(s []float64) float64 {
	k := len(s) / 2
	selectKth(s, k, 2*bits.Len(uint(len(s))))
	return middle(s, k)
}

// medianNaNFree is medianInPlace for s holding no NaN: there less and a
// plain < agree on every comparison, so selectKthNaNFree makes the same
// swaps as selectKth and the median has the same bits.
func medianNaNFree(s []float64) float64 {
	k := len(s) / 2
	selectKthNaNFree(s, k, 2*bits.Len(uint(len(s))))
	return middle(s, k)
}

// middle returns the median of s once selection has put rank k = len(s)/2
// in place.
func middle(s []float64, k int) float64 {
	if len(s)%2 == 1 {
		return s[k]
	}
	// s[:k] holds the k smallest values; the largest of them is the lower
	// middle.
	lo := s[0]
	for _, x := range s[1:k] {
		if less(lo, x) {
			lo = x
		}
	}
	// Averaged as halves so two huge same-sign middles cannot overflow.
	return 0.5*lo + 0.5*s[k]
}

// less is sort.Float64s's order: ascending, with NaN before every number.
func less(x, y float64) bool { return x < y || (x != x && y == y) }

// selectKth reorders s so that s[k] holds the value sort.Float64s would
// put there, no value before it orders after it and none after it orders
// before it. It runs Hoare partition rounds around a median-of-three pivot
// and, so that an adversarial input cannot make it quadratic, sorts what
// is left once the given number of rounds is spent.
func selectKth(s []float64, k, rounds int) {
	lo, hi := 0, len(s)-1
	for ; hi > lo; rounds-- {
		if rounds <= 0 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		// Median of three at lo, mid, hi; the pivot value lands at mid and
		// the outer two act as sentinels for the scans.
		mid := lo + (hi-lo)/2
		if less(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if less(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
			if less(s[mid], s[lo]) {
				s[mid], s[lo] = s[lo], s[mid]
			}
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for less(s[i], pivot) {
				i++
			}
			for less(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo:j+1] orders at or before the pivot, s[i:hi+1] at or after
		// it, and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// selectKthNaNFree is selectKth, step for step, with less replaced by a
// plain < for inputs holding no NaN. Keep the two in lockstep.
func selectKthNaNFree(s []float64, k, rounds int) {
	lo, hi := 0, len(s)-1
	for ; hi > lo; rounds-- {
		if rounds <= 0 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
			if s[mid] < s[lo] {
				s[mid], s[lo] = s[lo], s[mid]
			}
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// ParamLine is a line in point-direction form, robust to vertical slopes.
type ParamLine struct {
	P0  Vec2 // a point on the line (the centroid, for fitted lines)
	Dir Vec2 // unit direction
}

// Slope returns dy/dx (±Inf for vertical lines).
func (l ParamLine) Slope() float64 {
	if l.Dir.X == 0 {
		return math.Inf(1)
	}
	return l.Dir.Y / l.Dir.X
}

// Dist returns the perpendicular distance from q to the line.
func (l ParamLine) Dist(q Vec2) float64 {
	// |cross(q - P0, Dir)| with Dir unit length.
	return math.Abs((q.X-l.P0.X)*l.Dir.Y - (q.Y-l.P0.Y)*l.Dir.X)
}

// TLSLine fits a line by total least squares (perpendicular residuals) via
// the principal direction of the point cloud; unlike y=f(x) regression it is
// well-conditioned for the near-vertical steep transition line.
func TLSLine(pts []Vec2) (ParamLine, error) {
	if len(pts) < 2 {
		return ParamLine{}, errors.New("fitting: need at least 2 points")
	}
	var cx, cy float64
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	n := float64(len(pts))
	cx /= n
	cy /= n
	var sxx, sxy, syy float64
	for _, p := range pts {
		dx, dy := p.X-cx, p.Y-cy
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 && syy == 0 {
		return ParamLine{}, errors.New("fitting: coincident points")
	}
	// Principal eigenvector of [[sxx, sxy], [sxy, syy]].
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	lambda := tr/2 + math.Sqrt(math.Max(tr*tr/4-det, 0))
	var dir Vec2
	if math.Abs(sxy) > 1e-30 {
		dir = Vec2{X: lambda - syy, Y: sxy}
	} else if sxx >= syy {
		dir = Vec2{X: 1, Y: 0}
	} else {
		dir = Vec2{X: 0, Y: 1}
	}
	norm := math.Hypot(dir.X, dir.Y)
	dir.X /= norm
	dir.Y /= norm
	return ParamLine{P0: Vec2{cx, cy}, Dir: dir}, nil
}
