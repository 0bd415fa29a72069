package service

// Chain jobs: the N-dot chain extraction planner (internal/chainx) mounted
// on the service. A chain request is cacheable — the spec's per-pair
// instruments are deterministic in (seed, pair) — persists per-pair results
// to the journal as KindChainPair records alongside the usual cache entry,
// and with trace recording on writes one probe trace per pair, each
// replayable through cmd/vgxreplay.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/trace"
)

// runChain executes a normalized chain request through the planner on the
// service's worker pool and fills res. Pair failures (ladder exhausted,
// budget denied) are deterministic outcomes recorded on the result;
// cancellation and instrument faults propagate as errors.
func (s *Service) runChain(ctx context.Context, nreq Request, hash string, res *Result) error {
	src, err := chainx.NewSpecSource(*nreq.ChainSim, nreq.Chain.Windows)
	if err != nil {
		return err
	}
	cfg := chainConfig(ctx, nreq)
	var recMu sync.Mutex
	var recorders map[int]*trace.Recorder
	if s.traceDir != "" {
		recorders = make(map[int]*trace.Recorder, src.Dots()-1)
		cfg.Wrap = func(pair int, inst chainx.PairInstrument) chainx.PairInstrument {
			rec := trace.NewRecorder(inst)
			recMu.Lock()
			recorders[pair] = rec
			recMu.Unlock()
			return rec
		}
	}
	// Surrogate-enabled chain jobs probe every pair twin-first: the pair's
	// twin is acquired (and held) for the whole job, snapshotted into the
	// pair's trace meta before any probe, and the Hybrid wraps outside the
	// recorder so the trace holds exactly the escalated probes.
	var (
		twinKeys []string
		twins    []*twin
		hybs     []*surrogate.Hybrid
		snaps    []*trace.SurrogateMeta
	)
	if sur := nreq.ChainSim.Surrogate; sur != nil && sur.Threshold > 0 {
		n := src.Dots() - 1
		twinKeys = make([]string, n)
		twins = make([]*twin, n)
		hybs = make([]*surrogate.Hybrid, n)
		snaps = make([]*trace.SurrogateMeta, n)
		defer func() {
			for _, tw := range twins {
				if tw != nil {
					tw.mu.Unlock()
				}
			}
		}()
		for i := 0; i < n; i++ {
			key, err := chainTwinKey(*nreq.ChainSim, i)
			if err != nil {
				return err
			}
			twinKeys[i] = key
			twins[i] = s.acquireTwin(key, nreq.Chain.Windows[i])
			if s.traceDir != "" {
				snaps[i] = &trace.SurrogateMeta{Model: twins[i].model.Encode(), Threshold: sur.Threshold, Learn: !sur.NoLearn}
			}
		}
		prev := cfg.Wrap
		cfg.Wrap = func(pair int, inst chainx.PairInstrument) chainx.PairInstrument {
			if prev != nil {
				inst = prev(pair, inst)
			}
			h := &surrogate.Hybrid{Model: twins[pair].model, Inner: inst, Threshold: sur.Threshold, Learn: !sur.NoLearn}
			if s.telemetryOn {
				h.Metrics = s.metrics.sur
			}
			hybs[pair] = h // distinct index per planner goroutine: race-free
			return h
		}
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
	if hybs != nil {
		rep.Surrogate = make([]SurrogateReport, len(hybs))
		for i, h := range hybs {
			if h == nil {
				continue // pair denied before its instrument was wrapped
			}
			rep.Surrogate[i] = *s.settleTwin(twinKeys[i], twins[i], h)
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
	for pair, rec := range recorders {
		var sur *trace.SurrogateMeta
		if snaps != nil {
			sur = snaps[pair]
		}
		if err := s.writeChainPairTrace(rec, nreq, hash, src, pair, &cres.Pairs[pair], sur); err != nil {
			s.metrics.persistErrs.Inc()
		}
	}
	return nil
}

// writeChainPairTrace renders one pair's probe trace. The trace carries the
// full normalized chain request plus the pair index, so vgxreplay re-executes
// exactly that pair's escalation ladder against the recorded samples.
func (s *Service) writeChainPairTrace(rec *trace.Recorder, nreq Request, hash string, src *chainx.SpecSource, pair int, pres *chainx.PairResult, sur *trace.SurrogateMeta) error {
	reqJSON, err := json.Marshal(nreq)
	if err != nil {
		return err
	}
	resJSON, err := json.Marshal(pres)
	if err != nil {
		return err
	}
	p := pair
	steep, shallow := src.PairTruth(pair)
	meta := trace.Meta{
		Hash:             hash,
		Request:          reqJSON,
		Result:           resJSON,
		Window:           src.Windows()[pair],
		Pair:             &p,
		Surrogate:        sur,
		Truth:            &trace.Truth{Steep: steep, Shallow: shallow},
		BaseUniqueProbes: rec.Base().UniqueProbes,
		BaseRawCalls:     rec.Base().RawCalls,
		BaseVirtualNS:    int64(rec.Base().Virtual),
	}
	_, err = trace.Write(s.traceDir, meta, rec.Samples())
	return err
}

// chainConfig maps a normalized chain request onto the planner's config.
// Infogain rungs count into the live metric set on ctx; replay carries none.
func chainConfig(ctx context.Context, nreq Request) chainx.Config {
	o := methodOptions(ctx, nreq)
	return chainx.Config{
		Methods:      nreq.Chain.Methods,
		Budget:       nreq.Chain.Budget,
		Fast:         o.Fast,
		CoarseFactor: o.Adaptive.CoarseFactor,
		Rays:         o.Rays,
		InfoGain:     o.InfoGain,
	}
}
