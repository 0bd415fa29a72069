package fastvg

import (
	"context"
	"fmt"
	"time"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/method"
	"github.com/fastvg/fastvg/internal/sched"
)

// This file is the façade over the N-dot chain extraction planner
// (internal/chainx): the paper's Section 2.3 procedure — virtualize an
// N-dot linear array by composing its N−1 adjacent-pair extractions — run
// either sequentially against one shared device (ExtractChain) or
// concurrently against independent per-pair instruments with escalation and
// a probe budget (ExtractChainSpec).

// ChainMethod names a pair extraction pipeline in the escalation ladder.
type ChainMethod = chainx.Method

// The pair methods.
const (
	ChainMethodFast     = chainx.MethodFast
	ChainMethodAdaptive = chainx.MethodAdaptive
	ChainMethodRays     = chainx.MethodRays
)

// ChainPairResult is the outcome of one adjacent-pair extraction: the
// winning method, its matrix and slopes, per-attempt escalation records and
// the pair's probe/dwell cost.
type ChainPairResult = chainx.PairResult

// ChainExtraction is the outcome of a planner chain extraction: the
// composed Chain (nil unless every pair succeeded), every pair's result in
// index order, and the summed (sequential) versus makespan (concurrent)
// dwell cost.
type ChainExtraction = chainx.Result

// ChainExtractOptions tunes ExtractChainSpec.
type ChainExtractOptions struct {
	// Workers bounds the concurrent pair extractions; 0 means one per CPU,
	// 1 runs the pairs sequentially. Results are bit-identical at any value.
	Workers int
	// Windows overrides the spec's default per-pair scan window; nil uses
	// the spec's recommended window for every pair, otherwise len must be
	// Dots−1.
	Windows []Window
	// Methods is the per-pair escalation ladder; empty uses the default
	// (fast → adaptive → rays).
	Methods []ChainMethod
	// Budget caps the probes the whole chain may spend; 0 means unlimited.
	Budget int
	// Options tunes the fast and adaptive pair methods.
	Options
	// Rays tunes the ray-casting fallback.
	Rays RayOptions
}

// ExtractChainSpec runs the planner chain extraction against a serialisable
// chain device spec: each adjacent pair gets its own independent simulated
// instrument (noise and drift derived from the spec seed and the pair index
// alone), the pairs extract concurrently on a bounded worker pool under the
// probe budget, failed pairs escalate down the method ladder, and the
// pairwise matrices compose into one N×N virtualization. The result is
// bit-identical at any worker count.
func ExtractChainSpec(ctx context.Context, spec ChainSpec, opts ChainExtractOptions) (*ChainExtraction, error) {
	src, err := chainx.NewSpecSource(spec, opts.Windows)
	if err != nil {
		return nil, fmt.Errorf("fastvg: %w", err)
	}
	pool := sched.New(opts.Workers)
	defer pool.Close(context.WithoutCancel(ctx))
	fast := opts.Options.coreConfig()
	cfg := chainx.Config{
		Methods: opts.Methods,
		Budget:  opts.Budget,
		Options: method.Options{
			Fast:     fast,
			Adaptive: core.AdaptiveConfig{Config: fast},
			Rays:     raysConfig(opts.Rays),
		},
	}
	res, err := chainx.Extract(ctx, pool, src, cfg)
	if err != nil {
		return nil, fmt.Errorf("fastvg: %w", err)
	}
	return res, nil
}

// ExtractChain performs the paper's n-dot procedure (Section 2.3) against a
// shared-instrument chain simulator: one pair extraction per adjacent
// plunger pair — sequential, in pair order, exactly as on a single-channel
// instrument — composed into a chain virtualization. windows[i] is the scan
// window for pair (i, i+1); base is the operating point for the gates not
// being scanned. It is a thin wrapper over the planner with a one-worker
// pool and the fast method only; use ExtractChainSpec for concurrent pair
// extraction with escalation.
func ExtractChain(sim *ChainSim, windows []Window, base []float64, opts Options) (*Chain, []*Extraction, error) {
	n := sim.Phys.N
	if len(windows) != n-1 {
		return nil, nil, fmt.Errorf("fastvg: need %d windows, got %d", n-1, len(windows))
	}
	if len(base) != n {
		return nil, nil, fmt.Errorf("fastvg: need %d base voltages, got %d", n, len(base))
	}
	src := &chainx.SharedSource{Inst: sim.Inst, Win: windows, Base: base}
	pool := sched.New(1)
	defer pool.Close(context.Background())
	res, err := chainx.Extract(context.Background(), pool, src, chainx.Config{
		Methods: []ChainMethod{ChainMethodFast},
		Options: method.Options{Fast: opts.coreConfig()},
	})
	if err != nil {
		return nil, nil, err
	}
	exts := make([]*Extraction, 0, n-1)
	for i := range res.Pairs {
		p := &res.Pairs[i]
		if p.Error != "" {
			return nil, nil, fmt.Errorf("fastvg: pair (%d,%d): %s", i, i+1, p.Error)
		}
		exts = append(exts, &Extraction{
			Matrix:         p.Matrix,
			SteepSlope:     p.SteepSlope,
			ShallowSlope:   p.ShallowSlope,
			TripleV1:       p.TripleV1,
			TripleV2:       p.TripleV2,
			Probes:         p.Probes,
			ExperimentTime: time.Duration(p.ExperimentS * float64(time.Second)),
		})
	}
	return res.Chain, exts, nil
}
