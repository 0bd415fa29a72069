package service

// Chain jobs: the N-dot chain extraction planner (internal/chainx) mounted
// on the service. A chain request is cacheable — the spec's per-pair
// instruments are deterministic in (seed, pair) — persists per-pair results
// to the journal as KindChainPair records alongside the usual cache entry,
// and with trace recording on writes one probe trace per pair, each
// replayable through cmd/vgxreplay.

import (
	"context"
	"fmt"
	"time"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/qflow"
	"github.com/fastvg/fastvg/internal/telemetry"
)

// runChain executes a normalized chain request through the planner on the
// service's worker pool and fills res. Each pair probes through its own
// probe stack (newProbeStack); once the planner returns, the stacks settle
// and write their traces in pair order. Pair failures (ladder exhausted,
// budget denied) are deterministic outcomes recorded on the result;
// cancellation and instrument faults propagate as errors.
func (s *Service) runChain(ctx context.Context, nreq Request, hash string, res *Result) error {
	src, err := chainx.NewSpecSource(*nreq.ChainSim, nreq.Chain.Windows)
	if err != nil {
		return err
	}
	n := src.Dots() - 1
	sur := nreq.ChainSim.Surrogate
	twins := make([]*twin, n)
	if twinFirst(sur) {
		// Take every pair's twin before the planner starts, in pair order, so
		// concurrent chain jobs on one device cannot deadlock, and hold them
		// until they settle.
		defer func() {
			for _, tw := range twins {
				if tw != nil {
					tw.mu.Unlock()
				}
			}
		}()
		for i := range twins {
			key, err := chainTwinKey(*nreq.ChainSim, i)
			if err != nil {
				return err
			}
			twins[i] = s.acquireTwin(key, nreq.Chain.Windows[i])
		}
	}
	stacks := make([]*probeStack, n)
	cfg := chainConfig(ctx, nreq)
	cfg.Wrap = func(pair int, inst chainx.PairInstrument) chainx.PairInstrument {
		stacks[pair] = s.newProbeStack(inst, sur, twins[pair]) // distinct index per planner goroutine: race-free
		return stacks[pair].top
	}
	var psp *telemetry.Span
	if parent := telemetry.SpanFromContext(ctx); parent != nil {
		psp = parent.Child("pipeline", telemetry.Attr{K: "method", V: "chain"})
	}
	t0 := time.Now()
	cres, err := chainx.Extract(ctx, s.pool, src, cfg)
	if err != nil {
		return err
	}
	res.ComputeS = time.Since(t0).Seconds()
	res.Probes = cres.Probes
	res.ExperimentS = cres.ExperimentS
	if psp != nil {
		// Pair spans are synthesized from the planner's per-pair accounting
		// after the fact (deterministic order, no hot-path wrapping); their
		// virtual durations are real, their wall windows are not measured.
		psp.End()
		psp.SetVirtual(secondsToNS(cres.ExperimentS))
		for i := range cres.Pairs {
			p := &cres.Pairs[i]
			ps := psp.Child("pair",
				telemetry.AttrInt("pair", int64(i)),
				telemetry.Attr{K: "method", V: string(p.Method)},
				telemetry.AttrInt("attempts", int64(len(p.Attempts))))
			ps.SetVirtual(secondsToNS(p.ExperimentS))
			pb := ps.Child("probes", telemetry.AttrInt("count", int64(p.Probes)))
			pb.SetVirtual(secondsToNS(p.ExperimentS))
		}
	}
	rep := &ChainReport{Dots: cres.Dots, Pairs: cres.Pairs, BudgetDenied: cres.BudgetDenied}
	if twinFirst(sur) {
		rep.Surrogate = make([]SurrogateReport, n)
	}
	for i, st := range stacks {
		if st == nil {
			continue // denied by the budget: never probed, so no trace
		}
		if sr := s.settleTwin(st); sr != nil {
			rep.Surrogate[i] = *sr
		}
		steep, shallow := src.PairTruth(i)
		truth := qflow.Truth{SteepSlope: steep, ShallowSlope: shallow}
		if err := s.writeTrace(st, nreq, hash, src.Windows()[i], &truth, &i, &cres.Pairs[i]); err != nil {
			s.metrics.persistErrs.Inc()
		}
	}
	if cres.Chain != nil {
		rep.A12 = append([]float64(nil), cres.Chain.A12...)
		rep.A21 = append([]float64(nil), cres.Chain.A21...)
	}
	res.Chain = rep
	res.Scored = true
	res.Success = true
	for i := range cres.Pairs {
		p := &cres.Pairs[i]
		if !p.Scored {
			res.Scored = false
		}
		if !p.Success {
			res.Success = false
		}
	}
	if failed := cres.Failed(); len(failed) > 0 {
		res.Success = false
		res.Error = fmt.Sprintf("chain: %d of %d pairs failed (first: pair %d: %s)",
			len(failed), len(cres.Pairs), failed[0], cres.Pairs[failed[0]].Error)
	}
	return nil
}

// chainConfig maps a normalized chain request onto the planner's config.
// Infogain rungs count into the live metric set on ctx; replay carries none.
func chainConfig(ctx context.Context, nreq Request) chainx.Config {
	return chainx.Config{
		Methods: nreq.Chain.Methods,
		Budget:  nreq.Chain.Budget,
		Options: *methodOptions(ctx, nreq),
	}
}
