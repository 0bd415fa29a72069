// Package noise models the measurement noise of a charge-sensed quantum dot
// setup: white (thermal/amplifier) noise, 1/f charge noise built from a bath
// of random-telegraph fluctuators, strong individual two-level fluctuators,
// and slow sensor drift.
//
// Temporal processes are sampled on the instrument's virtual clock, so a
// raster scan acquires the familiar horizontal striping of 1/f noise while a
// sparse probing strategy (the paper's fast sweeps) sees time-correlated
// offsets between probes — exactly the error structure the post-processing
// filter of the paper is designed to survive.
package noise

import (
	"fmt"
	"math"

	"github.com/fastvg/fastvg/internal/xrand"
)

// Process is a time-dependent noise source. Sample must be called with
// non-decreasing times; queries that move backwards return the value of the
// current (most recently advanced) state rather than rewinding. This suits
// the instruments in this repository, which memoise measurements and never
// re-measure a configuration.
//
// A realisation is a deterministic function of the seed and the sequence of
// query times. Telegraph fluctuators cross a long idle gap in one step by
// redrawing from their stationary law (see Fluctuator.Sample), so two
// schedules that visit the same late time through different gaps see
// different, equally distributed, realisations; the instruments here query
// on a deterministic virtual clock, so a given workload is reproducible.
type Process interface {
	Sample(t float64) float64
}

// White is an i.i.d. Gaussian process with standard deviation Sigma.
// It ignores the time argument.
type White struct {
	Sigma float64
	rng   *xrand.Rand
}

// NewWhite returns a white-noise process with the given σ and seed.
func NewWhite(sigma float64, seed uint64) *White {
	return &White{Sigma: sigma, rng: xrand.New(seed)}
}

// Sample returns an independent Gaussian variate.
func (w *White) Sample(float64) float64 {
	if w.Sigma == 0 {
		return 0
	}
	return w.Sigma * w.rng.NormFloat64()
}

// Fluctuator is a symmetric random-telegraph (two-level) fluctuator with
// amplitude ±Amp/2 and mean switching rate Rate (switches per second in
// virtual time). Switch times are exponentially distributed.
//
// Short steps walk the switches one by one; a query more than 32 expected
// switches past the pending switch instead restarts the process from its
// stationary law, so a query costs O(1) however long the idle gap it
// crosses. The realisation therefore depends on the query schedule as well
// as the seed (see Process).
type Fluctuator struct {
	Amp  float64
	Rate float64

	rng        *xrand.Rand
	state      float64 // +Amp/2 or -Amp/2
	nextSwitch float64
}

// gapSwitches is the number of expected switches past the pending one
// beyond which Sample restarts the fluctuator instead of walking the gap.
// The state's correlation with its value before the gap is then below
// e^(-2·gapSwitches) ≈ 1.6e-28, far under float64 resolution, so the
// restart is exact in law. One 50 ms probe step spans at most 2.5 expected
// switches at the fastest preset rate (50 Hz), so probe-rate sampling
// keeps the per-switch walk.
const gapSwitches = 32

// NewFluctuator returns a fluctuator with a random initial state.
func NewFluctuator(amp, rate float64, seed uint64) *Fluctuator {
	f := &Fluctuator{Amp: amp, Rate: rate, rng: xrand.New(seed)}
	f.restart(0)
	return f
}

// restart draws the state from the stationary law, a fair coin, and
// schedules the next switch one exponential dwell after t. The process is
// memoryless, so this is the law of the fluctuator at any time long after
// its last observation.
func (f *Fluctuator) restart(t float64) {
	if f.rng.Float64() < 0.5 {
		f.state = f.Amp / 2
	} else {
		f.state = -f.Amp / 2
	}
	f.nextSwitch = t + f.dwell()
}

func (f *Fluctuator) dwell() float64 {
	if f.Rate <= 0 {
		return 1e300 // effectively never switches
	}
	return f.rng.ExpFloat64() / f.Rate
}

// Sample returns the fluctuator state at virtual time t, advancing through
// any switches that occurred since the previous query, or restarting from
// the stationary law when t lies more than gapSwitches expected switches
// past the pending switch.
func (f *Fluctuator) Sample(t float64) float64 {
	if f.Rate > 0 && (t-f.nextSwitch)*f.Rate > gapSwitches {
		f.restart(t)
		return f.state
	}
	for t >= f.nextSwitch {
		f.state = -f.state
		f.nextSwitch += f.dwell()
	}
	return f.state
}

// PinkBath approximates 1/f noise as a sum of fluctuators with log-spaced
// switching rates, the standard microscopic model of charge noise in
// semiconductor devices. Amp is the total RMS amplitude.
//
// The bath caches its sum and its horizon, the earliest pending switch of
// any fluctuator. No fluctuator changes state before its pending switch, so
// a query before the horizon returns the cached sum without touching the
// fluctuators; a later one advances only the fluctuators whose switch is
// due and re-sums in the same order. Every random draw and float operation
// matches summing freshly sampled fluctuators, so the realisation is
// unchanged; slow baths, such as lever-drift channels, are then nearly free
// to query at probe rate.
type PinkBath struct {
	fluctuators []Fluctuator
	sum         float64 // sum of the fluctuators' states, in order
	horizon     float64 // earliest pending switch; +Inf when none is pending
}

// NewPinkBath builds a bath of n fluctuators with rates log-spaced in
// [fMin, fMax] Hz and total RMS amplitude amp.
func NewPinkBath(amp float64, n int, fMin, fMax float64, seed uint64) *PinkBath {
	if n <= 0 {
		n = 1
	}
	b := &PinkBath{fluctuators: make([]Fluctuator, n)}
	perAmp := 2 * amp / math.Sqrt(float64(n)) // each contributes ±perAmp/2
	for i := 0; i < n; i++ {
		frac := 0.5
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		rate := fMin * math.Pow(fMax/fMin, frac)
		b.fluctuators[i] = *NewFluctuator(perAmp, rate, xrand.DeriveSeed(seed, i))
	}
	b.resum()
	return b
}

// Sample sums the bath at virtual time t.
func (b *PinkBath) Sample(t float64) float64 {
	if !(t >= b.horizon) { // NaN too: no fluctuator moves for it
		return b.sum
	}
	for i := range b.fluctuators {
		if f := &b.fluctuators[i]; t >= f.nextSwitch {
			f.Sample(t)
		}
	}
	b.resum()
	return b.sum
}

// resum recomputes the cached sum and horizon from the fluctuators.
func (b *PinkBath) resum() {
	sum, horizon := 0.0, math.Inf(1)
	for i := range b.fluctuators {
		f := &b.fluctuators[i]
		sum += f.state
		if f.nextSwitch < horizon {
			horizon = f.nextSwitch
		}
	}
	b.sum, b.horizon = sum, horizon
}

// Drift is a slow deterministic baseline drift: a linear ramp plus a
// sinusoid, modelling thermal drift of the sensor operating point.
type Drift struct {
	Linear float64 // units per second
	Amp    float64 // sinusoid amplitude
	Period float64 // sinusoid period in seconds
	Phase  float64
}

// Sample returns the drift offset at virtual time t.
func (d *Drift) Sample(t float64) float64 {
	v := d.Linear * t
	if d.Amp != 0 && d.Period > 0 {
		v += d.Amp * math.Sin(2*math.Pi*t/d.Period+d.Phase)
	}
	return v
}

// Composite sums a set of processes.
type Composite struct {
	Parts []Process
}

// Sample sums all parts at virtual time t.
func (c *Composite) Sample(t float64) float64 {
	var s float64
	for _, p := range c.Parts {
		s += p.Sample(t)
	}
	return s
}

// Params is a serialisable description of a complete noise model; the qflow
// benchmark definitions embed one so the exact noise realisation of every
// benchmark is reconstructible from its seed.
type Params struct {
	WhiteSigma float64 `json:"whiteSigma"`

	PinkAmp  float64 `json:"pinkAmp"`
	PinkN    int     `json:"pinkN"`
	PinkFMin float64 `json:"pinkFMin"`
	PinkFMax float64 `json:"pinkFMax"`

	RTNAmp  float64 `json:"rtnAmp"`
	RTNRate float64 `json:"rtnRate"`

	DriftLinear float64 `json:"driftLinear"`
	DriftAmp    float64 `json:"driftAmp"`
	DriftPeriod float64 `json:"driftPeriod"`

	JumpAmp      float64 `json:"jumpAmp"`      // charge-jump amplitude (σ per event)
	JumpInterval float64 `json:"jumpInterval"` // mean seconds between jumps
}

// Bounds Validate enforces: pinkN sizes a bath and the work of every query,
// and Jumps.Sample walks every jump since its last query.
const (
	maxPinkN        = 64  // the repository's specs use at most 14
	minJumpInterval = 1.0 // seconds
)

// Validate checks that p describes a bounded model: every value finite and
// non-negative, at most 64 bath fluctuators, pinkFMin ≤ pinkFMax when both
// are set, and a jump interval that is 0 (the default) or at least 1 s.
// Build does not call it, so models journaled before these bounds still
// build; callers validate Params that arrive as input.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"whiteSigma", p.WhiteSigma},
		{"pinkAmp", p.PinkAmp}, {"pinkFMin", p.PinkFMin}, {"pinkFMax", p.PinkFMax},
		{"rtnAmp", p.RTNAmp}, {"rtnRate", p.RTNRate},
		{"driftLinear", p.DriftLinear}, {"driftAmp", p.DriftAmp}, {"driftPeriod", p.DriftPeriod},
		{"jumpAmp", p.JumpAmp}, {"jumpInterval", p.JumpInterval},
	} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("noise: %s %v is not finite and non-negative", f.name, f.v)
		}
	}
	switch {
	case p.PinkN < 0 || p.PinkN > maxPinkN:
		return fmt.Errorf("noise: pinkN %d outside [0, %d]", p.PinkN, maxPinkN)
	case p.PinkFMin > 0 && p.PinkFMax > 0 && p.PinkFMin > p.PinkFMax:
		return fmt.Errorf("noise: pinkFMin %v exceeds pinkFMax %v", p.PinkFMin, p.PinkFMax)
	case p.JumpInterval != 0 && p.JumpInterval < minJumpInterval:
		return fmt.Errorf("noise: jumpInterval %v is below %v s", p.JumpInterval, minJumpInterval)
	}
	return nil
}

// Build constructs the composite process described by p, deriving component
// seeds from seed. A zero Params builds a silent (all-zero) model.
func (p Params) Build(seed uint64) Process {
	c := &Composite{}
	if p.WhiteSigma > 0 {
		c.Parts = append(c.Parts, NewWhite(p.WhiteSigma, xrand.DeriveSeed(seed, 101)))
	}
	if p.PinkAmp > 0 {
		n, fMin, fMax := p.PinkN, p.PinkFMin, p.PinkFMax
		if n == 0 {
			n = 12
		}
		if fMin == 0 {
			fMin = 0.01
		}
		if fMax == 0 {
			fMax = 50
		}
		c.Parts = append(c.Parts, NewPinkBath(p.PinkAmp, n, fMin, fMax, xrand.DeriveSeed(seed, 102)))
	}
	if p.RTNAmp > 0 {
		rate := p.RTNRate
		if rate == 0 {
			rate = 0.2
		}
		c.Parts = append(c.Parts, NewFluctuator(p.RTNAmp, rate, xrand.DeriveSeed(seed, 103)))
	}
	if p.DriftLinear != 0 || p.DriftAmp != 0 {
		c.Parts = append(c.Parts, &Drift{Linear: p.DriftLinear, Amp: p.DriftAmp, Period: p.DriftPeriod})
	}
	if p.JumpAmp > 0 {
		interval := p.JumpInterval
		if interval == 0 {
			interval = 60
		}
		c.Parts = append(c.Parts, NewJumps(p.JumpAmp, interval, xrand.DeriveSeed(seed, 104)))
	}
	return c
}

// Preset sensor-noise profiles for heterogeneous fleet simulations. The
// amplitudes are fractions of the sensor's ≈1.0 full-scale current swing,
// in line with the qflow benchmark suite's noise levels.

// PresetQuiet is a well-behaved device: weak white noise only.
func PresetQuiet() Params {
	return Params{WhiteSigma: 0.004}
}

// PresetStandard is a typical device: white noise plus 1/f charge noise.
func PresetStandard() Params {
	return Params{WhiteSigma: 0.006, PinkAmp: 0.012}
}

// PresetUnstable is a misbehaving device: strong 1/f, an individual
// two-level fluctuator, and rare persistent charge jumps on the sensor
// baseline.
func PresetUnstable() Params {
	return Params{
		WhiteSigma: 0.008,
		PinkAmp:    0.02,
		RTNAmp:     0.015, RTNRate: 0.1,
		JumpAmp: 0.03, JumpInterval: 3600,
	}
}

// Jumps models device instability: rare, abrupt and persistent shifts of
// the sensor baseline (charge rearrangements in the host material). Jump
// arrival is Poisson with MeanInterval seconds between events; each jump
// offsets the baseline by a Gaussian amount with standard deviation Amp.
type Jumps struct {
	Amp          float64
	MeanInterval float64

	rng      *xrand.Rand
	offset   float64
	nextJump float64
}

// NewJumps returns a jump process with the given amplitude and mean
// interval (seconds of virtual time).
func NewJumps(amp, meanInterval float64, seed uint64) *Jumps {
	j := &Jumps{Amp: amp, MeanInterval: meanInterval, rng: xrand.New(seed)}
	j.nextJump = j.interval()
	return j
}

func (j *Jumps) interval() float64 {
	if j.MeanInterval <= 0 {
		return 1e300
	}
	return j.rng.ExpFloat64() * j.MeanInterval
}

// Sample returns the accumulated offset at virtual time t.
func (j *Jumps) Sample(t float64) float64 {
	for t >= j.nextJump {
		j.offset += j.Amp * j.rng.NormFloat64()
		j.nextJump += j.interval()
	}
	return j.offset
}
