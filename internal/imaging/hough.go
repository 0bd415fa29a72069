package imaging

import (
	"math"
	"sort"
	"sync"

	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/scratch"
)

// HoughLine is a straight line in normal form ρ = x·cosθ + y·sinθ with the
// accumulator votes it received. θ is in radians, [0, π).
type HoughLine struct {
	Rho   float64
	Theta float64
	Votes int
}

// Slope returns dy/dx; ±Inf for vertical lines.
func (l HoughLine) Slope() float64 {
	s := math.Sin(l.Theta)
	if math.Abs(s) < 1e-12 {
		return math.Inf(1)
	}
	return -math.Cos(l.Theta) / s
}

// YAt returns y on the line at the given x (NaN for vertical lines).
func (l HoughLine) YAt(x float64) float64 {
	s := math.Sin(l.Theta)
	if math.Abs(s) < 1e-12 {
		return math.NaN()
	}
	return (l.Rho - x*math.Cos(l.Theta)) / s
}

// XAt returns x on the line at the given y.
func (l HoughLine) XAt(y float64) float64 {
	c := math.Cos(l.Theta)
	if math.Abs(c) < 1e-12 {
		return math.NaN()
	}
	return (l.Rho - y*math.Sin(l.Theta)) / c
}

// Dist returns the perpendicular distance from (x, y) to the line.
func (l HoughLine) Dist(x, y float64) float64 {
	return math.Abs(x*math.Cos(l.Theta) + y*math.Sin(l.Theta) - l.Rho)
}

// HoughConfig parameterises the transform.
type HoughConfig struct {
	ThetaStep float64 // radians per θ bin (default 1°)
	RhoStep   float64 // pixels per ρ bin (default 1)
}

// DefaultHoughConfig mirrors the usual OpenCV HoughLines resolution.
func DefaultHoughConfig() HoughConfig {
	return HoughConfig{ThetaStep: math.Pi / 180, RhoStep: 1}
}

// Accumulator is a filled Hough vote table.
type Accumulator struct {
	cfg    HoughConfig
	nTheta int
	nRho   int
	rhoMax float64
	votes  []int32

	sins, coss []float64 // per-θ-bin tables, kept for reuse
	suppressed []bool    // Peaks' per-bin suppression mask, kept for reuse
}

// accumulators holds recycled accumulators. The collector empties a
// sync.Pool, so it keeps no more than recently finished transforms held.
var accumulators sync.Pool // of *Accumulator

// Hough accumulates votes for every set pixel of a binary edge grid. The
// table is a recycled accumulator's memory when one is large enough.
func Hough(edges *grid.Grid, cfg HoughConfig) *Accumulator {
	if cfg.ThetaStep <= 0 {
		cfg.ThetaStep = math.Pi / 180
	}
	if cfg.RhoStep <= 0 {
		cfg.RhoStep = 1
	}
	a, _ := accumulators.Get().(*Accumulator)
	if a == nil {
		a = new(Accumulator)
	}
	a.cfg = cfg
	a.nTheta = int(math.Ceil(math.Pi / cfg.ThetaStep))
	a.rhoMax = math.Hypot(float64(edges.W), float64(edges.H))
	a.nRho = 2*int(math.Ceil(a.rhoMax/cfg.RhoStep)) + 1
	a.votes = scratch.Zeroed(a.votes, a.nTheta*a.nRho)

	a.sins = scratch.Zeroed(a.sins, a.nTheta)
	a.coss = scratch.Zeroed(a.coss, a.nTheta)
	sins, coss := a.sins, a.coss
	for t := 0; t < a.nTheta; t++ {
		th := float64(t) * cfg.ThetaStep
		sins[t] = math.Sin(th)
		coss[t] = math.Cos(th)
	}
	half := a.nRho / 2
	for y := 0; y < edges.H; y++ {
		for x := 0; x < edges.W; x++ {
			if edges.At(x, y) == 0 {
				continue
			}
			fx, fy := float64(x), float64(y)
			for t := 0; t < a.nTheta; t++ {
				rho := fx*coss[t] + fy*sins[t]
				r := int(math.Round(rho/cfg.RhoStep)) + half
				if r >= 0 && r < a.nRho {
					a.votes[t*a.nRho+r]++
				}
			}
		}
	}
	return a
}

// Recycle hands the accumulator's tables to the next Hough. Neither a nor
// its VotesAt may be used afterwards; lines Peaks returned stay valid.
func (a *Accumulator) Recycle() { accumulators.Put(a) }

// VotesAt returns the vote count of bin (thetaIdx, rhoIdx).
func (a *Accumulator) VotesAt(thetaIdx, rhoIdx int) int {
	return int(a.votes[thetaIdx*a.nRho+rhoIdx])
}

// line reconstructs the HoughLine of a bin.
func (a *Accumulator) line(t, r int) HoughLine {
	return HoughLine{
		Theta: float64(t) * a.cfg.ThetaStep,
		Rho:   float64(r-a.nRho/2) * a.cfg.RhoStep,
		Votes: a.VotesAt(t, r),
	}
}

// Peaks extracts up to maxPeaks lines with at least minVotes votes, greedily
// strongest-first, suppressing a (±suppressTheta bins, ±suppressRho bins)
// neighbourhood around each accepted peak.
func (a *Accumulator) Peaks(maxPeaks, minVotes, suppressTheta, suppressRho int) []HoughLine {
	type bin struct{ t, r int }
	var cands []bin
	for t := 0; t < a.nTheta; t++ {
		for r := 0; r < a.nRho; r++ {
			if a.VotesAt(t, r) >= minVotes {
				cands = append(cands, bin{t, r})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		vi := a.VotesAt(cands[i].t, cands[i].r)
		vj := a.VotesAt(cands[j].t, cands[j].r)
		if vi != vj {
			return vi > vj
		}
		if cands[i].t != cands[j].t {
			return cands[i].t < cands[j].t
		}
		return cands[i].r < cands[j].r
	})
	a.suppressed = scratch.Zeroed(a.suppressed, len(a.votes))
	suppressed := a.suppressed
	var out []HoughLine
	for _, c := range cands {
		if len(out) >= maxPeaks {
			break
		}
		if suppressed[c.t*a.nRho+c.r] {
			continue
		}
		out = append(out, a.line(c.t, c.r))
		for dt := -suppressTheta; dt <= suppressTheta; dt++ {
			t := c.t + dt
			// θ wraps modulo π with ρ negating; suppress without wrap for
			// simplicity (peaks near θ=0/π are rare for negative slopes).
			if t < 0 || t >= a.nTheta {
				continue
			}
			for dr := -suppressRho; dr <= suppressRho; dr++ {
				r := c.r + dr
				if r >= 0 && r < a.nRho {
					suppressed[t*a.nRho+r] = true
				}
			}
		}
	}
	return out
}
