// Package chainx is the N-dot chain extraction planner: it decomposes an
// N-dot linear-array job into its N−1 adjacent-pair extractions, runs them
// concurrently on a sched.Pool under a shared probe-budget accountant, and
// composes the pairwise matrices into one virtualgate.Chain — the paper's
// Section 2.3 procedure lifted from a sequential demo to a first-class
// workload.
//
// Determinism. Every pair probes its own independent instrument (the
// contract of Source), so the measured currents of pair i depend on pair i
// alone. All cross-pair decisions — budget admission, accounting, chain
// composition — happen serially in pair-index order at wave barriers. A
// chain extraction is therefore bit-identical at any worker count,
// including the sequential one-worker pool.
//
// Budget. Admission is by reservation, the same semantics as the fleet
// manager's: a pair is admitted only when the budget can cover its full
// escalation ladder at AttemptReserve probes per attempt, reservations
// become actuals at the wave barrier, and freed headroom admits deferred
// pairs in later waves. With AttemptReserve at or above the worst observed
// attempt cost, the budget can never be overspent.
//
// Escalation. Pair extraction failures are deterministic outcomes of the
// request (the instruments replay identically — the semantics of
// internal/service's job results), so a failed method escalates to the next
// method in the ladder instead of failing the chain; only cancellation and
// a Source that cannot build a pair abort. A pair whose whole ladder fails
// is recorded as a failed PairResult, and the composed chain is withheld.
package chainx

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/evalx"
	"github.com/fastvg/fastvg/internal/infogain"
	"github.com/fastvg/fastvg/internal/method"
	"github.com/fastvg/fastvg/internal/qflow"
	"github.com/fastvg/fastvg/internal/rays"
	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// Method names a pair extraction pipeline in the internal/method table.
type Method = method.Name

// The pair extraction methods of the escalation ladder.
const (
	MethodFast     = method.Fast     // the paper's method (core.Extract)
	MethodAdaptive = method.Adaptive // coarse-to-fine fast extraction
	MethodRays     = method.Rays     // ray-casting comparison method
	MethodInfoGain = method.InfoGain // Bayesian active probe scheduling
)

// ValidMethod reports whether m names a pair method: any method in the
// table but the baseline, whose full-CSD raster DefaultAttemptReserve does
// not cover.
func ValidMethod(m Method) bool {
	return m != method.Baseline && method.Valid(m)
}

// DefaultLadder is the default per-pair escalation: the paper's fast method
// first, the coarse-to-fine pass when its anchors fail, and the ray fan as
// the last resort (it needs no anchor structure at all). It is unchanged by
// the infogain rung so existing canonical request hashes stay stable; use
// InfoGainLadder to opt in.
func DefaultLadder() []Method {
	return []Method{MethodFast, MethodAdaptive, MethodRays}
}

// InfoGainLadder is the active-probing escalation: the infogain scheduler
// first — an order of magnitude fewer probes on quiet devices — falling
// back to the paper's sweeps when the posterior fails to converge.
func InfoGainLadder() []Method {
	return []Method{MethodInfoGain, MethodFast, MethodAdaptive, MethodRays}
}

// DefaultAttemptReserve is the probe reservation per escalation attempt: at
// or above the worst observed attempt cost on a 100×100 pair window (a fast
// extraction measures ≈ 1100 probes, a ray fan fewer), so a budget window
// can never be overspent.
const DefaultAttemptReserve = 1500

// ErrBudget marks a pair denied by the probe budget accountant.
var ErrBudget = errors.New("chainx: probe budget exhausted")

// PairInstrument is the two-gate instrument a pair extraction probes.
type PairInstrument = device.Metered

// Source provides the chain decomposition: the dot count and, per adjacent
// pair, an instrument and scan window. Pair must return an instrument
// independent of every other pair's (shared-nothing) when the planner runs
// on a pool with more than one worker; device.ChainSpec.BuildPair is the
// canonical implementation.
type Source interface {
	Dots() int
	Pair(i int) (PairInstrument, csd.Window, error)
}

// TruthSource is optionally implemented by sources with analytic pair
// slopes; the planner then scores each pair against the paper's accuracy
// criterion.
type TruthSource interface {
	PairTruth(i int) (steep, shallow float64)
}

// Config tunes a chain extraction; the zero value runs the default ladder
// with no budget.
type Config struct {
	// Methods is the per-pair escalation ladder, tried in order; empty uses
	// DefaultLadder.
	Methods []Method
	// Budget caps the probes the whole chain may spend; 0 means unlimited.
	Budget int
	// AttemptReserve is the admission reservation per ladder attempt;
	// default DefaultAttemptReserve.
	AttemptReserve int

	// Fast tunes the fast and adaptive methods; CoarseFactor the adaptive
	// coarse pass (0 uses the core default); Rays the ray method; InfoGain
	// the active probe scheduler.
	Fast         core.Config
	CoarseFactor int
	Rays         rays.Config
	InfoGain     infogain.Config

	// Wrap, if non-nil, wraps each pair's instrument before probing — the
	// extraction service's per-pair trace recording hook.
	Wrap func(pair int, inst PairInstrument) PairInstrument

	// run overrides the method dispatch in tests.
	run func(ctx context.Context, m Method, inst device.Instrument, win csd.Window, opts *method.Options) (*method.Fit, error)
}

func (c *Config) fillDefaults() {
	if len(c.Methods) == 0 {
		c.Methods = DefaultLadder()
	}
	if c.AttemptReserve <= 0 {
		c.AttemptReserve = DefaultAttemptReserve
	}
	if c.run == nil {
		c.run = method.Run
	}
}

// Attempt is one escalation step of a pair extraction.
type Attempt = method.Attempt

// PairResult is the outcome of one adjacent-pair extraction.
type PairResult struct {
	Pair   int    `json:"pair"`
	Method Method `json:"method,omitempty"` // the method that succeeded

	Matrix       virtualgate.Mat2 `json:"matrix"`
	SteepSlope   float64          `json:"steepSlope,omitempty"`
	ShallowSlope float64          `json:"shallowSlope,omitempty"`
	TripleV1     float64          `json:"tripleV1,omitempty"`
	TripleV2     float64          `json:"tripleV2,omitempty"`

	Probes      int       `json:"probes"` // across all attempts
	ExperimentS float64   `json:"experimentS"`
	Attempts    []Attempt `json:"attempts,omitempty"`

	// Error records a deterministic pair failure: every ladder method
	// failed, or the budget accountant denied the pair.
	Error string `json:"error,omitempty"`

	Scored        bool    `json:"scored,omitempty"`
	Success       bool    `json:"success,omitempty"`
	SteepErrDeg   float64 `json:"steepErrDeg,omitempty"`
	ShallowErrDeg float64 `json:"shallowErrDeg,omitempty"`
}

// Result is the outcome of a chain extraction.
type Result struct {
	Dots int `json:"dots"`
	// Chain is the composed N×N virtualization; nil unless every pair
	// succeeded.
	Chain *virtualgate.Chain `json:"chain,omitempty"`
	// Pairs holds every pair's outcome in pair-index order.
	Pairs []PairResult `json:"pairs"`

	Probes int `json:"probes"` // summed across pairs
	// ExperimentS is the summed instrument dwell across pairs — the
	// wall-clock cost of running the pairs sequentially on one fridge line.
	ExperimentS float64 `json:"experimentS"`
	// MakespanS is the dwell makespan of the same pair extractions list-
	// scheduled (in pair order) over Workers concurrent instrument channels:
	// what the chain costs in lab wall-clock when pairs run concurrently.
	MakespanS float64 `json:"makespanS"`
	Workers   int     `json:"workers"`

	BudgetDenied int     `json:"budgetDenied,omitempty"`
	ComputeS     float64 `json:"computeS"`
}

// Failed returns the indices of pairs that did not produce a matrix.
func (r *Result) Failed() []int {
	var out []int
	for i := range r.Pairs {
		if r.Pairs[i].Error != "" {
			out = append(out, i)
		}
	}
	return out
}

// Extract runs the chain extraction: N−1 pair extractions on pool under
// cfg's budget and escalation ladder, composed into a Chain. It returns an
// error only for transport faults (cancellation, a Source that cannot build
// a pair, a closed pool); pipeline failures are deterministic outcomes
// recorded on the PairResults.
func Extract(ctx context.Context, pool *sched.Pool, src Source, cfg Config) (*Result, error) {
	cfg.fillDefaults()
	for _, m := range cfg.Methods {
		if !ValidMethod(m) {
			return nil, fmt.Errorf("chainx: unknown method %q", m)
		}
	}
	n := src.Dots()
	if n < 2 {
		return nil, errors.New("chainx: chain needs at least 2 dots")
	}
	t0 := time.Now()
	res := &Result{Dots: n, Pairs: make([]PairResult, n-1), Workers: pool.Workers()}
	for i := range res.Pairs {
		res.Pairs[i].Pair = i
	}

	// Waves: admit in pair order under the budget, run the wave concurrently,
	// settle actual probes at the barrier, repeat with the freed headroom.
	pending := make([]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		pending = append(pending, i)
	}
	spent := 0
	need := cfg.AttemptReserve * len(cfg.Methods)
	for len(pending) > 0 {
		var wave, deferred []int
		reserved := 0
		for _, i := range pending {
			if cfg.Budget <= 0 || spent+reserved+need <= cfg.Budget {
				wave = append(wave, i)
				reserved += need
			} else {
				deferred = append(deferred, i)
			}
		}
		if len(wave) == 0 {
			// No headroom left for even one full ladder: the remaining pairs
			// are denied deterministically, in pair order.
			for _, i := range deferred {
				res.Pairs[i].Error = ErrBudget.Error()
				res.BudgetDenied++
			}
			break
		}
		err := pool.Map(ctx, len(wave), func(jctx context.Context, j int) error {
			return extractPair(jctx, src, &cfg, &res.Pairs[wave[j]])
		})
		// Settle in pair order even when the wave was interrupted: completed
		// pairs' probes were really spent.
		for _, i := range wave {
			spent += res.Pairs[i].Probes
		}
		if err != nil {
			return nil, err
		}
		pending = deferred
	}

	// Compose and account serially in pair order.
	allOK := true
	for i := range res.Pairs {
		p := &res.Pairs[i]
		res.Probes += p.Probes
		res.ExperimentS += p.ExperimentS
		if p.Error != "" {
			allOK = false
		}
	}
	res.MakespanS = makespan(res.Pairs, res.Workers)
	if allOK {
		chain, err := virtualgate.NewChain(n)
		if err != nil {
			return nil, err
		}
		for i := range res.Pairs {
			if err := chain.SetPair(i, res.Pairs[i].Matrix); err != nil {
				return nil, err
			}
		}
		res.Chain = chain
	}
	res.ComputeS = time.Since(t0).Seconds()
	return res, nil
}

// extractPair resolves one pair's instrument from the source and runs its
// escalation ladder.
func extractPair(ctx context.Context, src Source, cfg *Config, pr *PairResult) error {
	inst, win, err := src.Pair(pr.Pair)
	if err != nil {
		return fmt.Errorf("chainx: pair %d: %w", pr.Pair, err)
	}
	if cfg.Wrap != nil {
		inst = cfg.Wrap(pr.Pair, inst)
	}
	truth, _ := src.(TruthSource)
	return runLadder(ctx, inst, win, cfg, truth, pr)
}

// ExtractPair runs one pair's escalation ladder directly against a
// pre-built instrument — the offline-replay entry point, where the
// "instrument" serves a recorded probe trace. cfg.Wrap is not applied.
func ExtractPair(ctx context.Context, pair int, inst PairInstrument, win csd.Window, cfg Config) (*PairResult, error) {
	cfg.fillDefaults()
	pr := &PairResult{Pair: pair}
	if err := runLadder(ctx, inst, win, &cfg, nil, pr); err != nil {
		return nil, err
	}
	return pr, nil
}

// runLadder runs the escalation ladder on inst, filling pr. Deterministic
// pipeline failures escalate; cancellation aborts.
func runLadder(ctx context.Context, inst PairInstrument, win csd.Window, cfg *Config, truth TruthSource, pr *PairResult) error {
	opts := &method.Options{
		Fast:     cfg.Fast,
		Adaptive: core.AdaptiveConfig{Config: cfg.Fast, CoarseFactor: cfg.CoarseFactor},
		Rays:     cfg.Rays,
		InfoGain: cfg.InfoGain,
	}
	out, err := method.Ladder(ctx, inst, cfg.Methods, func(ctx context.Context, m Method) (*method.Fit, error) {
		return cfg.run(ctx, m, inst, win, opts)
	})
	if err != nil {
		return err
	}
	pr.Attempts = out.Attempts
	pr.Probes = out.Probes
	pr.ExperimentS = out.DwellS
	fit := out.Fit
	if fit == nil {
		pr.Error = fmt.Sprintf("all %d methods failed, last: %v", len(cfg.Methods), out.Err)
		return nil
	}
	pr.Method = out.Winner
	pr.Matrix = fit.Matrix
	pr.SteepSlope, pr.ShallowSlope = fit.SteepSlope, fit.ShallowSlope
	pr.TripleV1, pr.TripleV2 = fit.TripleV1, fit.TripleV2
	if truth != nil {
		steep, shallow := truth.PairTruth(pr.Pair)
		pr.Scored = true
		pr.Success, pr.SteepErrDeg, pr.ShallowErrDeg =
			evalx.CheckSlopes(fit.SteepSlope, fit.ShallowSlope,
				qflow.Truth{SteepSlope: steep, ShallowSlope: shallow}, evalx.DefaultAngleTolDeg)
	}
	return nil
}

// makespan list-schedules the pairs' dwell durations, in pair order, over w
// concurrent instrument channels and returns the completion time of the
// last one — a deterministic model of what the extraction costs in lab
// wall-clock, where per-probe dwell dominates and independent pairs measure
// simultaneously.
func makespan(pairs []PairResult, w int) float64 {
	if w < 1 {
		w = 1
	}
	free := make([]float64, w)
	var end float64
	for i := range pairs {
		// Earliest-free channel; ties to the lowest index.
		k := 0
		for j := 1; j < w; j++ {
			if free[j] < free[k] {
				k = j
			}
		}
		free[k] += pairs[i].ExperimentS
		if free[k] > end {
			end = free[k]
		}
	}
	return end
}
