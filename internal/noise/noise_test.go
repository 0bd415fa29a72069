package noise

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/fastvg/fastvg/internal/xrand"
)

func TestWhiteMoments(t *testing.T) {
	w := NewWhite(0.5, 1)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := w.Sample(float64(i) * 0.05)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Errorf("white mean = %v, want ~0", mean)
	}
	if math.Abs(std-0.5) > 0.01 {
		t.Errorf("white std = %v, want ~0.5", std)
	}
}

func TestWhiteZeroSigma(t *testing.T) {
	w := NewWhite(0, 1)
	for i := 0; i < 10; i++ {
		if v := w.Sample(0); v != 0 {
			t.Fatalf("zero-sigma white noise returned %v", v)
		}
	}
}

func TestFluctuatorTwoLevels(t *testing.T) {
	f := NewFluctuator(1.0, 10, 2)
	for i := 0; i < 10000; i++ {
		v := f.Sample(float64(i) * 0.01)
		if v != 0.5 && v != -0.5 {
			t.Fatalf("fluctuator emitted %v, want ±0.5", v)
		}
	}
}

func TestFluctuatorSwitchRate(t *testing.T) {
	f := NewFluctuator(1.0, 5, 3) // 5 switches/s on average
	prev := f.Sample(0)
	switches := 0
	const total = 200.0 // seconds
	const dt = 0.002
	for ti := dt; ti <= total; ti += dt {
		v := f.Sample(ti)
		if v != prev {
			switches++
			prev = v
		}
	}
	rate := float64(switches) / total
	if rate < 3.5 || rate > 6.5 {
		t.Errorf("observed switch rate %v, want ~5", rate)
	}
}

func TestFluctuatorZeroRateNeverSwitches(t *testing.T) {
	f := NewFluctuator(1.0, 0, 4)
	first := f.Sample(0)
	if v := f.Sample(1e12); v != first {
		t.Fatalf("zero-rate fluctuator switched from %v to %v", first, v)
	}
}

func TestFluctuatorMonotonicBackQuery(t *testing.T) {
	f := NewFluctuator(1.0, 100, 5)
	v1 := f.Sample(10)
	// A query earlier than the last advance returns current state, no rewind.
	v2 := f.Sample(1)
	if v1 != v2 {
		t.Fatalf("backwards query changed state: %v -> %v", v1, v2)
	}
}

// walkFluctuator is the per-switch telegraph walk with no long-gap
// crossing: the reference that probe-rate sampling must reproduce exactly.
type walkFluctuator struct {
	rate, state, next float64
	rng               *xrand.Rand
}

func newWalkFluctuator(amp, rate float64, seed uint64) *walkFluctuator {
	w := &walkFluctuator{rate: rate, rng: xrand.New(seed)}
	if w.rng.Float64() < 0.5 {
		w.state = amp / 2
	} else {
		w.state = -amp / 2
	}
	w.next = w.dwell()
	return w
}

func (w *walkFluctuator) dwell() float64 {
	if w.rate <= 0 {
		return 1e300
	}
	return w.rng.ExpFloat64() / w.rate
}

func (w *walkFluctuator) sample(t float64) float64 {
	for t >= w.next {
		w.state = -w.state
		w.next += w.dwell()
	}
	return w.state
}

// TestFluctuatorProbeRateMatchesWalk: at 50 ms probe steps no query spans
// enough switches to take the long-gap path, so every rate the presets
// (pink 0.01–50 Hz, RTN 0.1–0.2 Hz) and the qflow suite (pink 0.005–20 Hz,
// RTN 0.35–0.6 Hz) use reproduces the per-switch walk bit for bit, RNG
// stream included.
func TestFluctuatorProbeRateMatchesWalk(t *testing.T) {
	rates := []float64{0.1, 0.2, 0.35, 0.6}
	for _, b := range []*PinkBath{
		NewPinkBath(1, 12, 0.01, 50, 1), // Params defaults
		NewPinkBath(1, 14, 0.005, 20, 1),
	} {
		for _, f := range b.fluctuators {
			rates = append(rates, f.Rate)
		}
	}
	for _, rate := range rates {
		for seed := uint64(1); seed <= 4; seed++ {
			f := NewFluctuator(1, rate, seed)
			ref := newWalkFluctuator(1, rate, seed)
			for i := 0; i <= 4000; i++ {
				ti := float64(i) * 0.05
				if got, want := f.Sample(ti), ref.sample(ti); got != want || f.nextSwitch != ref.next {
					t.Fatalf("rate %v seed %d t=%v: state %v next %v, walk %v next %v",
						rate, seed, ti, got, f.nextSwitch, want, ref.next)
				}
			}
		}
	}
}

// TestFluctuatorLongGapIsStationary: after a gap of many expected switches
// the state is a fair coin, independent of its pre-gap value, and the wait
// for the next switch is exponential with mean 1/Rate — checked within 3σ
// over many seeds, at the fastest pink and the slowest RTN rate.
func TestFluctuatorLongGapIsStationary(t *testing.T) {
	const seeds = 4000
	for _, rate := range []float64{50, 0.1} {
		gap := 100 / rate
		step := 1e-3 / rate
		var up, same int
		var wait float64
		for seed := uint64(0); seed < seeds; seed++ {
			f := NewFluctuator(2, rate, xrand.DeriveSeed(77, int(seed)))
			t0 := 1 / rate
			pre := f.Sample(t0)
			t1 := t0 + gap
			if (t1-f.nextSwitch)*rate <= gapSwitches {
				t.Fatalf("rate %v seed %d: gap ends within %d switches of the pending one", rate, seed, gapSwitches)
			}
			post := f.Sample(t1)
			if post == 1 {
				up++
			}
			if post == pre {
				same++
			}
			ti := t1
			for f.Sample(ti) == post {
				ti += step
			}
			wait += ti - t1
		}
		sigma := math.Sqrt(0.25 / seeds)
		if p := float64(up) / seeds; math.Abs(p-0.5) > 3*sigma {
			t.Errorf("rate %v: P(+Amp/2 after gap) = %.4f, want 0.5 ± %.4f", rate, p, 3*sigma)
		}
		if p := float64(same) / seeds; math.Abs(p-0.5) > 3*sigma {
			t.Errorf("rate %v: P(state kept across gap) = %.4f, want 0.5 ± %.4f", rate, p, 3*sigma)
		}
		// The walk overshoots each switch by at most one step (mean step/2).
		mean, want := wait/seeds, 1/rate+step/2
		if tol := 3 / rate / math.Sqrt(seeds); math.Abs(mean-want) > tol {
			t.Errorf("rate %v: mean wait for next switch %v, want %v ± %v", rate, mean, want, tol)
		}
	}
}

// BenchmarkFluctuatorIdleGap crosses one 900 s idle gap (the fleet's
// spot-check interval) at 50 Hz per op: 45,000 expected switches that the
// long-gap path replaces with one restart.
func BenchmarkFluctuatorIdleGap(b *testing.B) {
	f := NewFluctuator(1, 50, 1)
	ti := 0.0
	b.ReportAllocs()
	for b.Loop() {
		ti += 900
		f.Sample(ti)
	}
}

func TestPinkBathRMS(t *testing.T) {
	amp := 0.3
	b := NewPinkBath(amp, 16, 0.01, 100, 6)
	var sumSq float64
	const n = 40000
	for i := 0; i < n; i++ {
		v := b.Sample(float64(i) * 0.01)
		sumSq += v * v
	}
	rms := math.Sqrt(sumSq / n)
	if rms < amp*0.5 || rms > amp*2 {
		t.Errorf("pink bath RMS = %v, want within [%v, %v]", rms, amp*0.5, amp*2)
	}
}

func TestPinkBathLowFrequencyDominates(t *testing.T) {
	// 1/f noise has more power at long timescales: the variance of means over
	// long blocks should stay comparable to the overall variance (unlike white
	// noise where it shrinks as 1/N).
	b := NewPinkBath(0.3, 16, 0.01, 100, 7)
	const blocks = 40
	const per = 2000
	var blockMeans []float64
	var all []float64
	tNow := 0.0
	for i := 0; i < blocks; i++ {
		var s float64
		for j := 0; j < per; j++ {
			v := b.Sample(tNow)
			s += v
			all = append(all, v)
			tNow += 0.01
		}
		blockMeans = append(blockMeans, s/per)
	}
	varAll := variance(all)
	varBlocks := variance(blockMeans)
	if varAll == 0 {
		t.Fatal("pink bath produced zero variance")
	}
	// White noise would give varBlocks/varAll ≈ 1/per = 5e-4.
	if ratio := varBlocks / varAll; ratio < 0.01 {
		t.Errorf("block-mean variance ratio = %v; spectrum looks white, not 1/f", ratio)
	}
}

func variance(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, v := range xs {
		ss += (v - mean) * (v - mean)
	}
	return ss / float64(len(xs))
}

func TestDrift(t *testing.T) {
	d := &Drift{Linear: 0.1}
	if got := d.Sample(10); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("linear drift at t=10: %v, want 1.0", got)
	}
	ds := &Drift{Amp: 2, Period: 4}
	if got := ds.Sample(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("sinusoid at quarter period: %v, want 2", got)
	}
	if got := ds.Sample(2); math.Abs(got) > 1e-9 {
		t.Errorf("sinusoid at half period: %v, want 0", got)
	}
}

func TestCompositeSums(t *testing.T) {
	c := &Composite{Parts: []Process{
		&Drift{Linear: 1},
		&Drift{Linear: 2},
	}}
	if got := c.Sample(3); math.Abs(got-9) > 1e-12 {
		t.Errorf("composite = %v, want 9", got)
	}
}

func TestParamsBuildDeterministic(t *testing.T) {
	p := Params{WhiteSigma: 0.1, PinkAmp: 0.05, RTNAmp: 0.2, DriftLinear: 0.001}
	a := p.Build(99)
	b := p.Build(99)
	for i := 0; i < 1000; i++ {
		ti := float64(i) * 0.05
		if av, bv := a.Sample(ti), b.Sample(ti); av != bv {
			t.Fatalf("same-seed models diverged at t=%v: %v != %v", ti, av, bv)
		}
	}
}

func TestParamsZeroIsSilent(t *testing.T) {
	m := Params{}.Build(1)
	for i := 0; i < 100; i++ {
		if v := m.Sample(float64(i)); v != 0 {
			t.Fatalf("zero params produced noise %v", v)
		}
	}
}

func TestParamsSeedChangesRealisation(t *testing.T) {
	p := Params{WhiteSigma: 0.1}
	a, b := p.Build(1), p.Build(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Sample(float64(i)) == b.Sample(float64(i)) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical samples", same)
	}
}

func TestFluctuatorAmplitudeProperty(t *testing.T) {
	f := func(seed uint64, ampRaw float64) bool {
		amp := math.Abs(ampRaw)
		if amp == 0 || math.IsInf(amp, 0) || math.IsNaN(amp) || amp > 1e100 {
			return true
		}
		fl := NewFluctuator(amp, 1, seed)
		v := fl.Sample(0)
		return math.Abs(math.Abs(v)-amp/2) < amp*1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJumpsArePersistentSteps(t *testing.T) {
	j := NewJumps(0.5, 10, 42)
	prev := j.Sample(0)
	changes := 0
	var lastChange float64
	for ti := 0.5; ti <= 300; ti += 0.5 {
		v := j.Sample(ti)
		if v != prev {
			changes++
			lastChange = ti
			prev = v
		}
	}
	if changes == 0 {
		t.Fatal("no jumps over 30 mean intervals")
	}
	// Offsets persist between jumps: immediately after the last change the
	// value stays constant until the next event.
	v := j.Sample(lastChange)
	if j.Sample(lastChange+0.01) != v {
		t.Error("jump offset did not persist")
	}
	if changes > 60 {
		t.Errorf("%d jumps over 300s at mean interval 10s (too many)", changes)
	}
}

func TestJumpsZeroIntervalNeverFires(t *testing.T) {
	j := NewJumps(1, 0, 1)
	if v := j.Sample(1e12); v != 0 {
		t.Errorf("jump process with disabled interval produced %v", v)
	}
}

func TestParamsBuildWithJumps(t *testing.T) {
	p := Params{JumpAmp: 0.3, JumpInterval: 5}
	m := p.Build(7)
	fired := false
	for ti := 0.0; ti < 100; ti += 0.1 {
		if m.Sample(ti) != 0 {
			fired = true
			break
		}
	}
	if !fired {
		t.Error("built jump process never fired over 20 mean intervals")
	}
}

// eagerBath is PinkBath as it was before the bath cached its sum: every
// query samples every fluctuator and sums them in order.
type eagerBath struct{ fs []*Fluctuator }

func newEagerBath(amp float64, n int, fMin, fMax float64, seed uint64) *eagerBath {
	b := &eagerBath{}
	perAmp := 2 * amp / math.Sqrt(float64(n))
	for i := 0; i < n; i++ {
		frac := 0.5
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		rate := fMin * math.Pow(fMax/fMin, frac)
		b.fs = append(b.fs, NewFluctuator(perAmp, rate, xrand.DeriveSeed(seed, i)))
	}
	return b
}

func (b *eagerBath) sample(t float64) float64 {
	var s float64
	for _, f := range b.fs {
		s += f.Sample(t)
	}
	return s
}

// TestPinkBathMatchesEagerSum: the cached sum and horizon change no bit of
// a realisation. Random schedules mix probe-rate steps, repeated and
// backward queries, NaN, queries exactly at the pending switch and idle
// gaps long enough to restart fluctuators, over baths from lever-drift slow
// to sensor fast.
func TestPinkBathMatchesEagerSum(t *testing.T) {
	baths := []struct {
		n          int
		fMin, fMax float64
	}{
		{12, 0.01, 50},   // Params.Build's default
		{14, 0.005, 20},  // the qflow suite
		{12, 1e-5, 0.01}, // fleet lever-drift channels
		{1, 0.2, 0.2},
		{64, 0.001, 500},
	}
	for bi, bc := range baths {
		for seed := uint64(1); seed <= 20; seed++ {
			lazy := NewPinkBath(0.02, bc.n, bc.fMin, bc.fMax, seed)
			ref := newEagerBath(0.02, bc.n, bc.fMin, bc.fMax, seed)
			rng := xrand.New(xrand.DeriveSeed(seed, 7+bi))
			now := 0.0
			for q := 0; q < 3000; q++ {
				at := now
				switch r := rng.Float64(); {
				case r < 0.6: // probe rate
					now += 0.05
					at = now
				case r < 0.7: // repeat
				case r < 0.8: // backward
					at = now - 10*rng.Float64()
				case r < 0.82:
					at = math.NaN()
				case r < 0.85: // exactly at the pending switch
					at = lazy.horizon
					if at > now {
						now = at
					}
				case r < 0.95: // fleet tick
					now += 300
					at = now
				default: // long idle gap
					now += 1e5 * rng.Float64()
					at = now
				}
				got, want := lazy.Sample(at), ref.sample(at)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("bath %d seed %d query %d at t=%v: %v, eager sum %v", bi, seed, q, at, got, want)
				}
			}
		}
	}
}

// BenchmarkPinkBathSample queries a default 12-fluctuator bath at probe
// rate (50 ms steps), the cost every noisy probe pays.
func BenchmarkPinkBathSample(b *testing.B) {
	for _, bc := range []struct {
		name       string
		fMin, fMax float64
	}{{"sensor", 0.01, 50}, {"leverdrift", 1e-5, 0.01}} {
		b.Run(bc.name, func(b *testing.B) {
			bath := NewPinkBath(0.02, 12, bc.fMin, bc.fMax, 1)
			ti := 0.0
			b.ReportAllocs()
			for b.Loop() {
				ti += 0.05
				bath.Sample(ti)
			}
		})
	}
}

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{{}, PresetQuiet(), PresetStandard(), PresetUnstable(),
		{PinkAmp: 0.02, PinkN: 64, PinkFMin: 1e-5, PinkFMax: 1e-5},
		{JumpAmp: 1.1, JumpInterval: 1},
		{PinkFMin: 0.5}, // unset pinkFMax takes its default later
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", p, err)
		}
	}
	for _, p := range []Params{
		{WhiteSigma: -0.1},
		{PinkAmp: math.NaN()},
		{RTNRate: math.Inf(1)},
		{DriftLinear: -1},
		{DriftPeriod: math.Inf(-1)},
		{PinkN: 4000000},
		{PinkN: -1},
		{PinkFMin: 2, PinkFMax: 1},
		{JumpAmp: 0.1, JumpInterval: 1e-7},
		{JumpInterval: 0.5},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}
