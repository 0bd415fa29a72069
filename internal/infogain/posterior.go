package infogain

import (
	"math"
	"sort"

	"github.com/fastvg/fastvg/internal/scratch"
)

// posterior is one transition line's discrete Bayesian state. The line
// lives in a per-line frame: u runs along the scan lines (rows for the
// steep line, columns for the shallow), v across them, and the line is
// v(u) = off + slope·u·(1 + bend·u/uLim) over a 3-D hypothesis grid
// offs × slopes × bends. A probe at (u, v) labelled bright means the cell
// sits on the (0,0) side, v < v(u); each hypothesis predicts that label
// exactly and the measurement mislabels with probability eps.
//
// Weights are stored off-fastest: w[(jb·Nslope+js)·Noff + jo]. Because the
// predicted label at fixed (slope, bend) is monotone in the offset, a
// probe splits each (bend, slope) row of the grid at one index. The offset
// grid is a uniform linspace, so that index is read off the grid spacing
// and then corrected against the stored offsets (searchGrid, fixIndex),
// which keeps it equal to a binary search at O(1) per row. Per-row prefix
// sums then make the expected-variance scoring O(rows) instead of O(H) per
// candidate. init sizes every buffer once per extraction, in a recycled
// scheduler's memory where it can; the probe hot path allocates nothing.
type posterior struct {
	name  string
	xIsU  bool // cell(u,v) = (u,v) when true (shallow line), (v,u) otherwise
	uLim  int  // scan-line extent (the knee-side axis)
	vLim  int  // cross extent (where the line's crossing moves)
	eps   float64
	noff  int
	nrows int // len(bends)·len(slopes)

	// entry = entryScale·slopeParam is the line's virtualization-matrix
	// entry (A12 = −d·δ1/δ2 for the steep line, A21 = −s·δ2/δ1 shallow).
	entryScale float64

	prior *linePrior

	// Labelling model, calibrated by the seed scan: the line is a current
	// step of size step below the bright plane anchored at (refX, refY)
	// with value refV; seedGrad is the bright ramp's gradient along this
	// line's scan axis (x for the steep line's row scans, y shallow).
	step, refV float64
	refX, refY int
	seedGrad   float64
	seedU      int // the scan line that calibrated the model
	seedN      int // samples recorded in scanV/scanC

	buffers
	offInv float64 // 1/spacing of offs, 0 for a one-point grid

	// Moments over the normalised posterior, refreshed by rebuild.
	mOff, mOff2     float64
	mSlope, mSlope2 float64
	mBend, mBend2   float64

	hn int // probes recorded in the history

	probes  int // active-phase probes (seeding excluded)
	refines int
	floored bool // no remaining candidate carries expected information

	maxRefines int
	minProbes  int
	targetCI   float64
}

// buffers is the memory of one line's posterior, carried from one
// extraction to the next by pooled schedulers.
type buffers struct {
	offs, slopes, bends []float64
	w                   []float64 // hypothesis weights, normalised to 1
	pw                  []float64 // per-row prefix sums of w: pw[row*(noff+1)+k]
	rowW, rowWo, rowWoo []float64 // per-row Σw, Σw·off, Σw·off²
	rowSlope            []float64 // slope param per row
	base                []float64 // scratch: slope·u·(1+bend·u/L) per row

	// Probe history for grid-refinement replay.
	hu, hv []int32
	hb     []bool

	scanV []int // seeding scratch
	scanC []float64
}

// history returns an empty slice of capacity exactly c, in buf's memory
// when it is large enough: observe records probes up to that capacity.
func history[T any](buf []T, c int) []T {
	if cap(buf) < c {
		return make([]T, 0, c)
	}
	return buf[:0:c]
}

// linePrior centres the hypothesis grid on externally known geometry.
type linePrior struct {
	off, slope float64
	slopeSpan  float64 // half-width of the slope grid
	span       float64 // half-width of the offset grid / seed scan, pixels
}

// crossAt predicts the line's v crossing at scan line u.
func (p *linePrior) crossAt(u float64) float64 { return p.off + p.slope*u }

// Hard clamps for grid refinement: slope parameters stay strictly inside
// the physics prior's open interval, offsets within half a window of it.
const (
	slopeMin, slopeMax = -0.995, -0.005
	bendMin, bendMax   = -0.12, 0.12
)

func (p *posterior) init(cfg *Config, uLim, vLim int) {
	p.uLim, p.vLim = uLim, vLim
	p.eps = cfg.NoiseEps
	p.noff = cfg.GridOff
	p.offs = scratch.Zeroed(p.offs, p.noff)
	p.slopes = scratch.Zeroed(p.slopes, cfg.GridSlope)
	p.bends = append(p.bends[:0], cfg.Bends...)
	sort.Float64s(p.bends)
	p.nrows = len(p.bends) * len(p.slopes)
	h := p.nrows * p.noff
	p.w = scratch.Zeroed(p.w, h)
	p.pw = scratch.Zeroed(p.pw, p.nrows*(p.noff+1))
	p.rowW = scratch.Zeroed(p.rowW, p.nrows)
	p.rowWo = scratch.Zeroed(p.rowWo, p.nrows)
	p.rowWoo = scratch.Zeroed(p.rowWoo, p.nrows)
	p.rowSlope = scratch.Zeroed(p.rowSlope, p.nrows)
	p.base = scratch.Zeroed(p.base, p.nrows)
	// Active probes never revisit a cell, so a line records at most one
	// seed scan (≤ 64 samples) plus one probe per window cell: sizing by the
	// window keeps a huge MaxProbes from pre-allocating gigabytes.
	cap := min(max(cfg.MaxProbes, 0), uLim*vLim) + 128
	p.hu = history(p.hu, cap)
	p.hv = history(p.hv, cap)
	p.hb = history(p.hb, cap)
	p.scanV = scratch.Zeroed(p.scanV, 64)
	p.scanC = scratch.Zeroed(p.scanC, 64)
	p.maxRefines = 10
	p.minProbes = cfg.MinProbes
	p.targetCI = cfg.TargetCI

	offLo, offHi := 0.02*float64(vLim), 1.10*float64(vLim)
	sLo, sHi := -0.95, -0.015
	if p.prior != nil {
		offLo = p.prior.off - p.prior.span
		offHi = p.prior.off + p.prior.span
		sLo = p.prior.slope - p.prior.slopeSpan
		sHi = p.prior.slope + p.prior.slopeSpan
	}
	p.setGrids(offLo, offHi, sLo, sHi, p.bends[0], p.bends[len(p.bends)-1])
	p.resetUniform()
	p.rebuild()
}

// setGrids lays the grids out as inclusive linspaces, clamped to the
// physics prior.
func (p *posterior) setGrids(offLo, offHi, sLo, sHi, bLo, bHi float64) {
	offLo = math.Max(offLo, -0.5*float64(p.vLim))
	offHi = math.Min(offHi, 1.5*float64(p.vLim))
	if offHi-offLo < 1e-3 {
		offLo, offHi = offLo-0.5, offLo+0.5
	}
	sLo = math.Max(sLo, slopeMin)
	sHi = math.Min(sHi, slopeMax)
	if sHi-sLo < 1e-6 {
		mid := 0.5 * (sLo + sHi)
		sLo, sHi = mid-1e-6, mid+1e-6
	}
	bLo = math.Max(bLo, bendMin)
	bHi = math.Min(bHi, bendMax)
	linspace(p.offs, offLo, offHi)
	p.offInv = 0
	if p.noff > 1 {
		p.offInv = float64(p.noff-1) / (offHi - offLo)
	}
	linspace(p.slopes, sLo, sHi)
	linspace(p.bends, bLo, bHi)
	for jb := range p.bends {
		for js := range p.slopes {
			p.rowSlope[jb*len(p.slopes)+js] = p.slopes[js]
		}
	}
}

func linspace(dst []float64, lo, hi float64) {
	n := len(dst)
	if n == 1 {
		dst[0] = 0.5 * (lo + hi)
		return
	}
	step := (hi - lo) / float64(n-1)
	for i := range dst {
		dst[i] = lo + float64(i)*step
	}
}

// searchGrid returns sort.SearchFloat64s(xs, x) — the first index whose
// value is ≥ x, or len(xs) when none is (NaN included) — for an ascending
// grid laid out by linspace with inv = 1/spacing (0 for one point). The
// spacing gives the guess and fixIndex makes it exact; a guess from an
// infinite or NaN x converts to an arbitrary int, which fixIndex clamps.
func searchGrid(xs []float64, inv, x float64) int {
	return fixIndex(xs, int((x-xs[0])*inv)+1, x)
}

// fixIndex moves a guess k to sort.SearchFloat64s(xs, x) for ascending xs:
// it clamps k to [0, len(xs)], then steps it to the exact boundary against
// the stored values. Any guess gives the exact answer; a good one (off by
// at most one, as the grid spacing gives) costs two comparisons.
func fixIndex(xs []float64, k int, x float64) int {
	n := len(xs)
	k = max(0, min(k, n))
	for k > 0 && xs[k-1] >= x {
		k--
	}
	for k < n && !(xs[k] >= x) {
		k++
	}
	return k
}

func (p *posterior) resetUniform() {
	u := 1 / float64(len(p.w))
	for i := range p.w {
		p.w[i] = u
	}
}

// fillBase computes slope·u·(1+bend·u/L) per (bend, slope) row for scan
// line u into the scratch buffer.
func (p *posterior) fillBase(u int) {
	uf := float64(u)
	curve := uf / float64(p.uLim)
	for jb, b := range p.bends {
		f := uf * (1 + b*curve)
		row := jb * len(p.slopes)
		for js := range p.slopes {
			p.base[row+js] = p.slopes[js] * f
		}
	}
}

// observe folds one labelled probe into the posterior, records it for
// replay, renormalises, and refines the grid when the posterior has
// outgrown its resolution. Allocation-free while the history stays within
// its pre-allocated capacity (MaxProbes + seeding).
func (p *posterior) observe(u, v int, bright bool) {
	p.apply(u, v, bright)
	if p.hn < cap(p.hu) {
		p.hu = append(p.hu, int32(u))
		p.hv = append(p.hv, int32(v))
		p.hb = append(p.hb, bright)
		p.hn++
	}
	p.rebuild()
	p.maybeRefine()
}

// apply multiplies in one probe's Bernoulli likelihood without
// renormalising. A hypothesis predicts bright iff v < off + base, i.e.
// iff off > v − base, so each row splits at one index.
func (p *posterior) apply(u, v int, bright bool) {
	p.fillBase(u)
	hit, miss := 1-p.eps, p.eps
	for row := 0; row < p.nrows; row++ {
		k := searchGrid(p.offs, p.offInv, float64(v)-p.base[row])
		ws := p.w[row*p.noff : (row+1)*p.noff]
		// offs[:k] predict dark, offs[k:] predict bright.
		darkF, brightF := hit, miss
		if bright {
			darkF, brightF = miss, hit
		}
		for i := 0; i < k; i++ {
			ws[i] *= darkF
		}
		for i := k; i < p.noff; i++ {
			ws[i] *= brightF
		}
	}
}

// rebuild renormalises the weights and refreshes the prefix sums and
// moments the scoring and stopping rules read.
func (p *posterior) rebuild() {
	var tot float64
	for _, x := range p.w {
		tot += x
	}
	if tot <= 0 {
		p.resetUniform()
		tot = 1
	}
	inv := 1 / tot
	p.mOff, p.mOff2 = 0, 0
	p.mSlope, p.mSlope2 = 0, 0
	p.mBend, p.mBend2 = 0, 0
	for row := 0; row < p.nrows; row++ {
		ws := p.w[row*p.noff : (row+1)*p.noff]
		ps := p.pw[row*(p.noff+1) : (row+1)*(p.noff+1)]
		ps[0] = 0
		var rw, rwo, rwoo float64
		for i, x := range ws {
			x *= inv
			ws[i] = x
			rw += x
			ps[i+1] = rw // the running row sum is the prefix sum
			o := p.offs[i]
			rwo += x * o
			rwoo += x * o * o
		}
		p.rowW[row] = rw
		p.rowWo[row] = rwo
		p.rowWoo[row] = rwoo
		s := p.rowSlope[row]
		b := p.bends[row/len(p.slopes)]
		p.mOff += rwo
		p.mOff2 += rwoo
		p.mSlope += rw * s
		p.mSlope2 += rw * s * s
		p.mBend += rw * b
		p.mBend2 += rw * b * b
	}
}

func variance(m, m2 float64) float64 {
	v := m2 - m*m
	if v < 0 {
		return 0
	}
	return v
}

func (p *posterior) stdOff() float64   { return math.Sqrt(variance(p.mOff, p.mOff2)) }
func (p *posterior) stdSlope() float64 { return math.Sqrt(variance(p.mSlope, p.mSlope2)) }
func (p *posterior) stdBend() float64  { return math.Sqrt(variance(p.mBend, p.mBend2)) }

func (p *posterior) meanOff() float64   { return p.mOff }
func (p *posterior) meanSlope() float64 { return p.mSlope }

// entryCI is the 95% confidence-interval width of the line's matrix entry
// (±2σ; the entry is linear in the slope parameter).
func (p *posterior) entryCI() float64 {
	return 4 * math.Abs(p.entryScale) * p.stdSlope()
}

func (p *posterior) done(cfg *Config) bool {
	return p.probes >= cfg.MinProbes && p.entryCI() <= cfg.TargetCI
}

// maybeRefine re-centres and shrinks the grid once the posterior mass
// resolves finer than the current spacing, replaying the probe history
// onto the new grid. Refinement is what lets a coarse 48×40×3 grid reach
// sub-milliradian slope resolution.
func (p *posterior) maybeRefine() {
	if p.refines >= p.maxRefines {
		return
	}
	spOff := p.offs[1] - p.offs[0]
	spSlope := p.slopes[len(p.slopes)-1] - p.slopes[0]
	if len(p.slopes) > 1 {
		spSlope = p.slopes[1] - p.slopes[0]
	}
	const minOffStep, minSlopeStep = 5e-3, 2e-6
	wantOff := p.stdOff() < 1.5*spOff && spOff > minOffStep*float64(p.noff)
	wantSlope := p.stdSlope() < 1.5*spSlope && spSlope > minSlopeStep*float64(len(p.slopes))
	if !wantOff && !wantSlope {
		return
	}
	p.refines++
	hoff := math.Max(4*p.stdOff(), spOff)
	hslope := math.Max(4*p.stdSlope(), spSlope)
	bLo, bHi := p.bends[0], p.bends[len(p.bends)-1]
	if len(p.bends) > 1 {
		spBend := p.bends[1] - p.bends[0]
		hbend := math.Max(4*p.stdBend(), spBend)
		bLo, bHi = p.mBend-hbend, p.mBend+hbend
	}
	p.setGrids(p.mOff-hoff, p.mOff+hoff, p.mSlope-hslope, p.mSlope+hslope, bLo, bHi)
	p.replay()
}

// replay rebuilds the posterior from the recorded probe history on the
// current grid, renormalising periodically to keep the weights afloat.
func (p *posterior) replay() {
	p.resetUniform()
	for i := 0; i < p.hn; i++ {
		p.apply(int(p.hu[i]), int(p.hv[i]), p.hb[i])
		if i%32 == 31 {
			p.renorm()
		}
	}
	p.rebuild()
}

func (p *posterior) renorm() {
	var tot float64
	for _, x := range p.w {
		tot += x
	}
	if tot <= 0 {
		p.resetUniform()
		return
	}
	inv := 1 / tot
	for i := range p.w {
		p.w[i] *= inv
	}
}

// cell maps line-frame coordinates to window pixels.
func (p *posterior) cell(u, v int) (x, y int) {
	if p.xIsU {
		return u, v
	}
	return v, u
}

// Candidate geometry: the scan-line fan (fractions of the knee-side
// extent) and the per-line crossing quantile offsets (in posterior σ).
// The fan is dense on purpose: with binary labels at pixel granularity,
// slope resolution comes from bracketing the crossing on many scan lines
// at diverse sub-pixel phases, not from hammering one line.
var (
	candFracs = fanFracs()
	candSigma = [7]float64{-2.2, -1.4667, -0.7333, 0, 0.7333, 1.4667, 2.2}
)

func fanFracs() [21]float64 {
	var f [21]float64
	for i := range f {
		f[i] = 0.08 + 0.84*float64(i)/float64(len(f)-1)
	}
	return f
}

// bestCandidate scores the candidate cells — posterior crossing quantiles
// on a fan of scan lines safely on the knee side of the other line — by
// expected posterior variance of the matrix entry after the probe, and
// returns the best unprobed one together with its expected variance
// reduction (in slope-parameter units; zero means every surviving
// hypothesis already agrees on the outcome). Enumeration order is fixed
// and ties keep the first candidate, so the choice is deterministic.
func (p *posterior) bestCandidate(s *Scheduler) (bu, bv int, gain float64, ok bool) {
	other := &s.shallow
	if p == &s.shallow {
		other = &s.steep
	}
	// Scan lines stay below 85% of the other line's offset — an upper
	// bound on the knee's position along this line's u axis, since the
	// other line falls toward it.
	uMax := clampInt(int(0.85*other.meanOff()), 2, p.uLim-1)

	var vs [len(candSigma)]int
	var scores [len(candSigma)]float64
	bestScore := math.Inf(-1)
	lastU := -1
	for _, f := range candFracs {
		u := clampInt(int(math.Round(f*float64(uMax))), 0, p.uLim-1)
		if u == lastU {
			continue
		}
		lastU = u
		p.fillBase(u)
		// Posterior crossing mean and σ at this scan line.
		var mean, m2 float64
		for row := 0; row < p.nrows; row++ {
			b := p.base[row]
			mean += p.rowWo[row] + b*p.rowW[row]
			m2 += p.rowWoo[row] + 2*b*p.rowWo[row] + b*b*p.rowW[row]
		}
		sigma := math.Sqrt(variance(mean, m2))
		if sigma < 0.6 {
			sigma = 0.6
		}
		if max := float64(p.vLim) / 3; sigma > max {
			sigma = max
		}
		n := 0
		lastV := -1
		for _, k := range candSigma {
			v := clampInt(int(math.Round(mean+k*sigma)), 0, p.vLim-1)
			if v == lastV {
				continue
			}
			lastV = v
			if x, y := p.cell(u, v); !s.wasProbed(x, y) {
				vs[n] = v
				n++
			}
		}
		p.scoreLine(vs[:n], scores[:n])
		for i, sc := range scores[:n] {
			if sc > bestScore {
				bestScore, bu, bv, ok = sc, u, vs[i], true
			}
		}
	}
	if ok {
		// E[var after] = mSlope2 − bestScore, so the expected reduction
		// over the current variance (mSlope2 − mSlope²) is below; Jensen
		// keeps it non-negative up to rounding.
		gain = bestScore - p.mSlope*p.mSlope
	}
	return bu, bv, gain, ok
}

// scoreLine scores candidates vs (at most len(candSigma)) on the scan line
// whose bases are already in p.base into out. A candidate's score is
// Nb²/Zb + Nd²/Zd — equivalent (up to the fixed total second moment) to
// the negated expected posterior variance of the matrix entry after
// observing the probe's binary outcome. Larger is better: the best probe
// is the one whose answer best splits the hypothesis set. One pass over
// the rows serves every candidate; each candidate's sums still accumulate
// in row order.
func (p *posterior) scoreLine(vs []int, out []float64) {
	var wd, sd [len(candSigma)]float64 // dark-predicted mass and slope moment
	// fv holds the candidates' crossings as floats and tv their positions
	// in offset-grid steps, so a row's split guess for candidate i is
	// tv[i] − tb with one subtraction; fixIndex makes it exact.
	var fv, tv [len(candSigma)]float64
	offs, inv := p.offs, p.offInv
	for i, v := range vs {
		fv[i] = float64(v)
		tv[i] = (fv[i]-offs[0])*inv + 1
	}
	stride := p.noff + 1
	for row := 0; row < p.nrows; row++ {
		base, slope := p.base[row], p.rowSlope[row]
		tb := base * inv
		pw := p.pw[row*stride : (row+1)*stride]
		for i := range vs {
			m := pw[fixIndex(offs, int(tv[i]-tb), fv[i]-base)]
			wd[i] += m
			sd[i] += m * slope
		}
	}
	hit, miss := 1-p.eps, p.eps
	for i := range vs {
		wb := 1 - wd[i]
		sb := p.mSlope - sd[i]
		zb := hit*wb + miss*wd[i]
		zd := hit*wd[i] + miss*wb
		nb := hit*sb + miss*sd[i]
		nd := hit*sd[i] + miss*sb
		out[i] = nb*nb/zb + nd*nd/zd
	}
}

// estimate summarises the line's posterior.
func (p *posterior) estimate() LineEstimate {
	return LineEstimate{
		Entry:   p.entryScale * p.mSlope,
		EntryCI: p.entryCI(),
		Bend:    p.mBend,
		Probes:  p.probes,
		Refines: p.refines,
	}
}
