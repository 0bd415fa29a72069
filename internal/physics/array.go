package physics

import (
	"errors"
	"fmt"
	"math"
)

// Array is the constant-interaction model of a linear N-dot array with one
// plunger gate per dot, the configuration of the paper's quadruple-dot
// device (Figure 1) and of the n-dot chain extraction of Section 2.3.
type Array struct {
	N      int         `json:"n"`
	EC     []float64   `json:"ec"`     // on-site charging energies, len N
	ECm    []float64   `json:"ecm"`    // nearest-neighbour mutual energies, len N-1
	Alpha  [][]float64 `json:"alpha"`  // lever arms [dot][gate], N×N
	Offset []float64   `json:"offset"` // chemical potential offsets, len N
	MaxN   int         `json:"maxN"`
}

// Validate checks dimensions and the parameter regime under which
// GroundState's bounded search is exact.
func (a *Array) Validate() error {
	if a.N < 2 {
		return errors.New("physics: array needs at least 2 dots")
	}
	if len(a.EC) != a.N || len(a.ECm) != a.N-1 || len(a.Alpha) != a.N || len(a.Offset) != a.N {
		return errors.New("physics: array parameter lengths do not match N")
	}
	minEC := math.Inf(1)
	for i, ec := range a.EC {
		if ec <= 0 {
			return fmt.Errorf("physics: EC[%d] must be positive", i)
		}
		if len(a.Alpha[i]) != a.N {
			return fmt.Errorf("physics: Alpha[%d] has length %d, want %d", i, len(a.Alpha[i]), a.N)
		}
		if a.Alpha[i][i] <= 0 {
			return fmt.Errorf("physics: Alpha[%d][%d] must be positive", i, i)
		}
		minEC = math.Min(minEC, ec)
	}
	for i, m := range a.ECm {
		if m < 0 {
			return fmt.Errorf("physics: ECm[%d] must be non-negative", i)
		}
		if m > minEC/3 {
			return fmt.Errorf("physics: ECm[%d] = %v exceeds min(EC)/3 = %v; bounded ground-state search would not be exact", i, m, minEC/3)
		}
	}
	if a.MaxN < 1 {
		return errors.New("physics: MaxN must be at least 1")
	}
	return nil
}

// Mu returns the chemical potential of dot i at gate voltages v (len N).
func (a *Array) Mu(i int, v []float64) float64 {
	mu := a.Offset[i]
	for g, vg := range v {
		mu += a.Alpha[i][g] * vg
	}
	return mu
}

// Energy returns the constant-interaction energy of occupation vector n at
// gate voltages v.
func (a *Array) Energy(n []int, v []float64) float64 {
	var u float64
	for i := 0; i < a.N; i++ {
		fi := float64(n[i])
		u += 0.5*a.EC[i]*fi*(fi-1) - fi*a.Mu(i, v)
	}
	for i := 0; i < a.N-1; i++ {
		u += a.ECm[i] * float64(n[i]) * float64(n[i+1])
	}
	return u
}

// groundWindow is the per-dot occupancy search width: ±2 around the
// uncoupled optimum, 5 candidate occupations per dot.
const groundWindow = 5

// GroundScratch holds the reusable buffers of GroundStateInto so the probe
// hot path allocates nothing after the first call. The zero value is ready
// to use; a scratch must not be shared between concurrent callers.
type GroundScratch struct {
	lo, hi []int
	mu     []float64
	best   []float64 // suffix DP values, N×groundWindow
	choice []int     // lexicographically-first minimising successor index
}

func (s *GroundScratch) grow(n int) {
	if cap(s.lo) < n {
		s.lo = make([]int, n)
		s.hi = make([]int, n)
		s.mu = make([]float64, n)
		s.best = make([]float64, n*groundWindow)
		s.choice = make([]int, n*groundWindow)
	}
	s.lo = s.lo[:n]
	s.hi = s.hi[:n]
	s.mu = s.mu[:n]
	s.best = s.best[:n*groundWindow]
	s.choice = s.choice[:n*groundWindow]
}

// GroundState returns the occupation vector minimising the energy.
func (a *Array) GroundState(v []float64) []int {
	var s GroundScratch
	return a.GroundStateInto(nil, v, &s)
}

// GroundStateInto computes the ground-state occupation vector into dst
// (grown as needed) using scratch buffers from s, allocating nothing once
// both are warm. Because the array's mutual charging energies are
// nearest-neighbour only (ECm couples dot i to dot i+1), the minimisation
// over the per-dot occupancy windows factorises into an exact chain dynamic
// programme: O(N·W²) with W = 5 candidate occupations per dot, instead of
// the W^N enumeration a dense interaction matrix would force. That is what
// makes probing N = 16 chains as cheap per point as probing a double dot.
//
// Ties are broken toward the lexicographically smallest occupation vector —
// the same vector a lexicographic exhaustive search with strict improvement
// would keep — so the DP is a drop-in replacement for the old enumeration.
// The per-dot windows are ±2 around the uncoupled optimum, exact under the
// Validate regime (ECm ≤ min(EC)/3).
func (a *Array) GroundStateInto(dst []int, v []float64, s *GroundScratch) []int {
	n := a.N
	s.grow(n)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		s.mu[i] = a.Mu(i, v)
		star := int(math.Floor(s.mu[i]/a.EC[i])) + 1
		s.lo[i] = clampInt(star-2, 0, a.MaxN)
		s.hi[i] = clampInt(star+2, 0, a.MaxN)
	}
	// site(i, n) = ½·EC·n·(n−1) − n·µ_i, the single-dot part of Energy.
	site := func(i, occ int) float64 {
		f := float64(occ)
		return 0.5*a.EC[i]*f*(f-1) - f*s.mu[i]
	}
	// Suffix DP right to left: best[i][k] is the minimal energy of dots
	// i..N−1 when dot i holds occupation lo[i]+k, including the i↔i+1 bond.
	for k := 0; k <= s.hi[n-1]-s.lo[n-1]; k++ {
		s.best[(n-1)*groundWindow+k] = site(n-1, s.lo[n-1]+k)
	}
	for i := n - 2; i >= 0; i-- {
		// The successor's window of suffix energies; its bond term is
		// ECm·occ·occ₂, which Go evaluates as (ECm·occ)·occ₂, so the
		// product hoisted per occupation gives the same bits.
		lo2 := s.lo[i+1]
		next := s.best[(i+1)*groundWindow : (i+1)*groundWindow+s.hi[i+1]-lo2+1]
		for k := 0; k <= s.hi[i]-s.lo[i]; k++ {
			bond := a.ECm[i] * float64(s.lo[i]+k)
			bestVal := math.Inf(1)
			bestK := 0
			for k2, b := range next {
				u := bond*float64(lo2+k2) + b
				if u < bestVal { // strict: ties keep the smaller occupation
					bestVal = u
					bestK = k2
				}
			}
			s.best[i*groundWindow+k] = site(i, s.lo[i]+k) + bestVal
			s.choice[i*groundWindow+k] = bestK
		}
	}
	// Head choice, then backtrack; strict comparisons keep the
	// lexicographically smallest minimiser throughout.
	bestVal := math.Inf(1)
	k := 0
	for k0 := 0; k0 <= s.hi[0]-s.lo[0]; k0++ {
		if u := s.best[k0]; u < bestVal {
			bestVal = u
			k = k0
		}
	}
	dst[0] = s.lo[0] + k
	for i := 1; i < n; i++ {
		k = s.choice[(i-1)*groundWindow+k]
		dst[i] = s.lo[i] + k
	}
	return dst
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// PairLine returns dot `dot`'s n-th addition line in the plane of gates
// (g1, g2), with every other gate held at the voltages in fixed (len N;
// entries for g1 and g2 are ignored) and the other dots' occupations given
// by others (len N; entry for `dot` ignored).
func (a *Array) PairLine(dot, n int, others []int, g1, g2 int, fixed []float64) Line {
	rhs := a.EC[dot] * float64(n-1)
	if dot > 0 {
		rhs += a.ECm[dot-1] * float64(others[dot-1])
	}
	if dot < a.N-1 {
		rhs += a.ECm[dot] * float64(others[dot+1])
	}
	c := a.Offset[dot] - rhs
	for g := 0; g < a.N; g++ {
		if g == g1 || g == g2 {
			continue
		}
		c += a.Alpha[dot][g] * fixed[g]
	}
	return Line{A: a.Alpha[dot][g1], B: a.Alpha[dot][g2], C: c}
}

// PairSlopes returns the ground-truth (steep, shallow) transition-line
// slopes dV_{g2}/dV_{g1} for the adjacent pair of dots (i, i+1) scanned with
// gates (i, i+1): the inputs to the pairwise virtualization matrix.
func (a *Array) PairSlopes(i int) (steep, shallow float64) {
	steep = -a.Alpha[i][i] / a.Alpha[i][i+1]
	shallow = -a.Alpha[i+1][i] / a.Alpha[i+1][i+1]
	return steep, shallow
}

// UniformChain builds a homogeneous N-dot array whose every adjacent pair
// reproduces the given first-electron line geometry; crossAlpha sets the
// nearest-neighbour lever-arm fraction (Alpha[i][i±1] = crossAlpha·Alpha[i][i])
// and farFrac the next-nearest fraction (decaying geometrically beyond).
func UniformChain(n int, ec, ecm, alphaOwn, crossFrac, farFrac float64, offset float64) (*Array, error) {
	if n < 2 {
		return nil, errors.New("physics: chain needs at least 2 dots")
	}
	a := &Array{
		N:      n,
		EC:     make([]float64, n),
		ECm:    make([]float64, n-1),
		Alpha:  make([][]float64, n),
		Offset: make([]float64, n),
		MaxN:   2,
	}
	for i := 0; i < n; i++ {
		a.EC[i] = ec
		a.Offset[i] = offset
		a.Alpha[i] = make([]float64, n)
		for g := 0; g < n; g++ {
			d := g - i
			if d < 0 {
				d = -d
			}
			switch d {
			case 0:
				a.Alpha[i][g] = alphaOwn
			case 1:
				a.Alpha[i][g] = alphaOwn * crossFrac
			default:
				a.Alpha[i][g] = alphaOwn * crossFrac * math.Pow(farFrac, float64(d-1))
			}
		}
	}
	for i := 0; i < n-1; i++ {
		a.ECm[i] = ecm
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
