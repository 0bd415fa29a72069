package infogain

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/xrand"
)

// TestSearchGridMatchesBinarySearch pins the spacing-guided offset lookup to
// sort.SearchFloat64s on random linspace grids — one-point grids, the
// default 48-point grid, and narrow refined ones far from the origin — at
// every grid point, its float neighbours, between points, out of range, at
// ±Inf and NaN. fixIndex must be exact from any guess, however wrong.
func TestSearchGridMatchesBinarySearch(t *testing.T) {
	rng := xrand.New(21)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(64)
		switch trial % 4 {
		case 0:
			n = 1
		case 1:
			n = DefaultGridOff
		}
		lo := 300*rng.Float64() - 100
		width := math.Pow(10, 4*rng.Float64()-3) // 1e-3 … 10: down to refined grids
		if trial%7 == 0 {
			width = 1e-3 // setGrids' minimum offset span
		}
		xs := make([]float64, n)
		linspace(xs, lo, lo+width)
		inv := 0.0
		if n > 1 {
			inv = float64(n-1) / width
		}
		var qs []float64
		for _, x := range xs {
			qs = append(qs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
		}
		qs = append(qs, lo-1, lo-width, lo+2*width, lo+1e6, -1e300, 1e300,
			math.Inf(-1), math.Inf(1), math.NaN())
		for i := 0; i < 20; i++ {
			qs = append(qs, lo-width+3*width*rng.Float64())
		}
		for _, q := range qs {
			want := sort.SearchFloat64s(xs, q)
			if got := searchGrid(xs, inv, q); got != want {
				t.Fatalf("n=%d lo=%v width=%v: searchGrid(%v) = %d, binary search %d", n, lo, width, q, got, want)
			}
			for _, k := range []int{math.MinInt, -1, 0, want - 1, want, want + 1, n, n + 5, math.MaxInt} {
				if got := fixIndex(xs, k, q); got != want {
					t.Fatalf("n=%d: fixIndex(guess %d, %v) = %d, binary search %d", n, k, q, got, want)
				}
			}
		}
	}
}

// The reference below is the posterior update and scoring as they stood
// with a binary search per row: apply, rebuild, score, bestCandidate, and
// the observe → refine → replay path that calls them. TestScoringLockstep
// steps a scheduler through it beside one running the package code.

func refApply(p *posterior, u, v int, bright bool) {
	p.fillBase(u)
	hit, miss := 1-p.eps, p.eps
	for row := 0; row < p.nrows; row++ {
		k := sort.SearchFloat64s(p.offs, float64(v)-p.base[row])
		ws := p.w[row*p.noff : (row+1)*p.noff]
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

func refRebuild(p *posterior) {
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
		ps := p.pw[row*(p.noff+1):]
		ps[0] = 0
		var rw, rwo, rwoo float64
		for i, x := range ws {
			x *= inv
			ws[i] = x
			ps[i+1] = ps[i] + x
			o := p.offs[i]
			rw += x
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

func refScore(p *posterior, v int) float64 {
	var wd, sd float64
	for row := 0; row < p.nrows; row++ {
		k := sort.SearchFloat64s(p.offs, float64(v)-p.base[row])
		m := p.pw[row*(p.noff+1)+k]
		wd += m
		sd += m * p.rowSlope[row]
	}
	wb := 1 - wd
	sb := p.mSlope - sd
	hit, miss := 1-p.eps, p.eps
	zb := hit*wb + miss*wd
	zd := hit*wd + miss*wb
	nb := hit*sb + miss*sd
	nd := hit*sd + miss*sb
	return nb*nb/zb + nd*nd/zd
}

// scored is one candidate the reference scored, in enumeration order.
type scored struct {
	u, v  int
	score float64
}

func refBestCandidate(p *posterior, s *Scheduler, log []scored) (bu, bv int, gain float64, ok bool, _ []scored) {
	other := &s.shallow
	if p == &s.shallow {
		other = &s.steep
	}
	uMax := clampInt(int(0.85*other.meanOff()), 2, p.uLim-1)
	bestScore := math.Inf(-1)
	lastU := -1
	for _, f := range candFracs {
		u := clampInt(int(math.Round(f*float64(uMax))), 0, p.uLim-1)
		if u == lastU {
			continue
		}
		lastU = u
		p.fillBase(u)
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
		lastV := -1
		for _, k := range candSigma {
			v := clampInt(int(math.Round(mean+k*sigma)), 0, p.vLim-1)
			if v == lastV {
				continue
			}
			lastV = v
			x, y := p.cell(u, v)
			if s.wasProbed(x, y) {
				continue
			}
			sc := refScore(p, v)
			log = append(log, scored{u, v, sc})
			if sc > bestScore {
				bestScore, bu, bv, ok = sc, u, v, true
			}
		}
	}
	if ok {
		gain = bestScore - p.mSlope*p.mSlope
	}
	return bu, bv, gain, ok, log
}

func refObserve(p *posterior, u, v int, bright bool) {
	refApply(p, u, v, bright)
	if p.hn < cap(p.hu) {
		p.hu = append(p.hu, int32(u))
		p.hv = append(p.hv, int32(v))
		p.hb = append(p.hb, bright)
		p.hn++
	}
	refRebuild(p)
	refMaybeRefine(p)
}

func refMaybeRefine(p *posterior) {
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
	p.resetUniform()
	for i := 0; i < p.hn; i++ {
		refApply(p, int(p.hu[i]), int(p.hv[i]), p.hb[i])
		if i%32 == 31 {
			p.renorm()
		}
	}
	refRebuild(p)
}

// refSeed is Scheduler.Seed with the reference observe.
func refSeed(s *Scheduler, src Source) error {
	if err := s.seedLine(src, &s.steep, seedFracs(s.win.Rows)); err != nil {
		return err
	}
	if err := s.seedLine(src, &s.shallow, seedFracs(s.win.Cols)); err != nil {
		return err
	}
	s.gx = s.steep.seedGrad
	s.gy = s.shallow.seedGrad
	for _, p := range []*posterior{&s.steep, &s.shallow} {
		for i := 0; i < p.seedN; i++ {
			x, y := p.cell(p.seedU, p.scanV[i])
			refObserve(p, p.seedU, p.scanV[i], s.bright(p, x, y, p.scanC[i]))
		}
	}
	return nil
}

// nextLine is Run's choice of the line to probe: nil with stop=true when
// Run would return.
func nextLine(s *Scheduler) (p *posterior, stop bool) {
	doneS, doneSh := s.steep.done(&s.cfg), s.shallow.done(&s.cfg)
	if (doneS && doneSh) || s.activeProbes >= s.cfg.MaxProbes {
		return nil, true
	}
	if !doneS && !s.steep.floored {
		p = &s.steep
	}
	if !doneSh && !s.shallow.floored && (p == nil || s.shallow.entryCI() > s.steep.entryCI()) {
		p = &s.shallow
	}
	return p, p == nil
}

// probe is stepLine's measurement half: probe (u, v) and fold the label
// into p through observe.
func probe(s *Scheduler, src Source, p *posterior, u, v int, observe func(p *posterior, u, v int, bright bool)) {
	x, y := p.cell(u, v)
	c := src.Current(x, y)
	s.activeProbes++
	p.probes++
	s.markProbed(x, y)
	observe(p, u, v, s.bright(p, x, y, c))
}

func lineIndex(s *Scheduler, p *posterior) int {
	if p == &s.shallow {
		return 1
	}
	return 0
}

// samePosterior compares everything the update writes, bit for bit.
func samePosterior(a, b *posterior) error {
	eq := func(name string, x, y []float64) error {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Errorf("%s %s[%d]: %v vs reference %v", a.name, name, i, x[i], y[i])
			}
		}
		return nil
	}
	for _, c := range []struct {
		name string
		x, y []float64
	}{
		{"w", a.w, b.w}, {"pw", a.pw, b.pw}, {"offs", a.offs, b.offs}, {"slopes", a.slopes, b.slopes},
		{"bends", a.bends, b.bends}, {"rowW", a.rowW, b.rowW}, {"rowWo", a.rowWo, b.rowWo}, {"rowWoo", a.rowWoo, b.rowWoo},
		{"moments", []float64{a.mOff, a.mOff2, a.mSlope, a.mSlope2, a.mBend, a.mBend2},
			[]float64{b.mOff, b.mOff2, b.mSlope, b.mSlope2, b.mBend, b.mBend2}},
	} {
		if err := eq(c.name, c.x, c.y); err != nil {
			return err
		}
	}
	if a.refines != b.refines || a.hn != b.hn {
		return fmt.Errorf("%s: refines %d / history %d vs reference %d / %d", a.name, a.refines, a.hn, b.refines, b.hn)
	}
	return nil
}

// lockstepSpec draws a device geometry around the default one under the
// given noise preset. Even seeds also get a rough analytic Prior.
func lockstepSpec(preset noise.Params, seed uint64) (device.DoubleDotSpec, *Prior) {
	rng := xrand.New(1000 + seed)
	spec := device.DoubleDotSpec{
		SteepSlope:   -(4 + 8*rng.Float64()),
		ShallowSlope: -(0.08 + 0.15*rng.Float64()),
		CrossXFrac:   0.55 + 0.2*rng.Float64(),
		CrossYFrac:   0.5 + 0.2*rng.Float64(),
		Noise:        preset,
		Seed:         seed,
	}
	if seed%2 == 1 {
		return spec, nil
	}
	// The lines' triple point, V2 = steep·(V1 − x0) = y0 + shallow·V1,
	// nudged so the prior is near but not on the truth.
	span := 50.0
	x0, y0 := spec.CrossXFrac*span, spec.CrossYFrac*span
	v1 := (y0 + spec.SteepSlope*x0) / (spec.SteepSlope - spec.ShallowSlope)
	return spec, &Prior{
		SteepSlope:   spec.SteepSlope * (1 + 0.05*rng.NormFloat64()),
		ShallowSlope: spec.ShallowSlope * (1 + 0.05*rng.NormFloat64()),
		TripleV1:     v1 + rng.NormFloat64(),
		TripleV2:     y0 + spec.ShallowSlope*v1 + rng.NormFloat64(),
	}
}

// TestScoringLockstep steps a scheduler on the package code beside one on
// the binary-search reference, over 70 seeds under each of the quiet,
// standard and unstable presets, half of them warm-started from a Prior.
// Both see identically built instruments. Before every probe the two pick
// the same candidate with the same gain bits, and every candidate the
// reference scores gets identical score bits from scoreLine; after every
// observe (seeding included) the posteriors agree bit for bit.
func TestScoringLockstep(t *testing.T) {
	const seedsPerPreset = 70
	for _, preset := range []struct {
		name string
		n    noise.Params
	}{
		{"quiet", noise.PresetQuiet()},
		{"standard", noise.PresetStandard()},
		{"unstable", noise.PresetUnstable()},
	} {
		t.Run(preset.name, func(t *testing.T) {
			t.Parallel()
			var steps, candidates, priors int
			for seed := uint64(1); seed <= seedsPerPreset; seed++ {
				spec, prior := lockstepSpec(preset.n, seed)
				if prior != nil {
					priors++
				}
				s, c := lockstep(t, spec, prior)
				steps += s
				candidates += c
			}
			if steps < 10*seedsPerPreset {
				t.Fatalf("lockstep covered only %d probes", steps)
			}
			t.Logf("%d seeds (%d warm), %d probes, %d candidate scores compared", seedsPerPreset, priors, steps, candidates)
		})
	}
}

// lockstep runs one extraction on both code paths, failing t at the first
// difference, and returns the probes and candidate scores it compared.
func lockstep(t *testing.T, spec device.DoubleDotSpec, prior *Prior) (steps, candidates int) {
	specB := spec
	instA, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	instB, _, err := specB.Build()
	if err != nil {
		t.Fatal(err)
	}
	srcA, srcB := csd.PixelSource{Src: instA, Win: win}, csd.PixelSource{Src: instB, Win: win}
	cfg := Config{Prior: prior}
	a, b := NewScheduler(win, cfg), NewScheduler(win, cfg)

	errA, errB := a.Seed(srcA), refSeed(b, srcB)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("seed %d: Seed err %v, reference %v", spec.Seed, errA, errB)
	}
	for i, p := range []*posterior{&a.steep, &a.shallow} {
		if err := samePosterior(p, []*posterior{&b.steep, &b.shallow}[i]); err != nil {
			t.Fatalf("seed %d after seeding: %v", spec.Seed, err)
		}
	}
	if errA != nil {
		return 0, 0
	}
	var log []scored
	var vs []int
	out := make([]float64, len(candSigma))
	for step := 0; ; step++ {
		pa, stopA := nextLine(a)
		pb, stopB := nextLine(b)
		if stopA != stopB || (!stopA && lineIndex(a, pa) != lineIndex(b, pb)) {
			t.Fatalf("seed %d step %d: scheduler picks diverged", spec.Seed, step)
		}
		if stopA {
			return steps, candidates
		}
		u, v, gain, ok := pa.bestCandidate(a)
		var ru, rv int
		var rgain float64
		var rok bool
		ru, rv, rgain, rok, log = refBestCandidate(pb, b, log[:0])
		if ok != rok || u != ru || v != rv || math.Float64bits(gain) != math.Float64bits(rgain) {
			t.Fatalf("seed %d step %d %s: candidate (%d,%d) gain %v ok %v, reference (%d,%d) gain %v ok %v",
				spec.Seed, step, pa.name, u, v, gain, ok, ru, rv, rgain, rok)
		}
		// Rescore the reference's candidates the way bestCandidate does:
		// one scoreLine call per scan line.
		for i := 0; i < len(log); {
			j := i
			vs = vs[:0]
			for ; j < len(log) && log[j].u == log[i].u; j++ {
				vs = append(vs, log[j].v)
			}
			pa.fillBase(log[i].u)
			pa.scoreLine(vs, out[:len(vs)])
			for k := range vs {
				if math.Float64bits(out[k]) != math.Float64bits(log[i+k].score) {
					t.Fatalf("seed %d step %d %s: score(%d,%d) = %v, reference %v",
						spec.Seed, step, pa.name, log[i].u, vs[k], out[k], log[i+k].score)
				}
			}
			candidates += len(vs)
			i = j
		}
		if !ok || gain <= 1e-9*variance(pa.mSlope, pa.mSlope2)+1e-15 {
			pa.floored, pb.floored = true, true
			continue
		}
		probe(a, srcA, pa, u, v, (*posterior).observe)
		probe(b, srcB, pb, u, v, refObserve)
		if err := samePosterior(pa, pb); err != nil {
			t.Fatalf("seed %d step %d: %v", spec.Seed, step, err)
		}
		steps++
	}
}
