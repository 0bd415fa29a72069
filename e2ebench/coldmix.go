package main

import (
	"context"
	"fmt"
	"time"

	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/service"
)

// coldMix: every op is one synchronous POST /v1/batch carrying one request
// the daemon has never seen (twin-first requests aside, which bypass the
// cache by design), so pipelines, probe physics, the scheduler and journal
// writes do nearly all the work and the request path almost none.
type coldMix struct {
	seq     *opSeq
	results []*opResult // by op index

	// traced pass
	svc     *service.Service
	pool    *sched.Pool
	tallies []*layerTally
	apiOver [][]float64 // per client: round trip minus in-process Batch, ns
}

func (w *coldMix) opsPerSecond() float64 { return 330 }
func (w *coldMix) clients(nproc int) int { return nproc }

func (w *coldMix) generate(seed uint64, n, clients int) (*opSeq, error) {
	seq, err := coldMixSeq(seed, n, clients)
	w.seq = seq
	return seq, err
}

func (w *coldMix) prepare(b *bench) error { return nil }

func (w *coldMix) setUp(b *bench, k int) (*server, error) {
	return b.start(fmt.Sprintf("vgxd-%d.log", k), "-data-dir", b.path(fmt.Sprintf("data-%d", k)))
}

func (w *coldMix) beginPass() { w.results = make([]*opResult, len(w.seq.Ops)) }

func (w *coldMix) check(o op, body []byte) (verdict, string) {
	r, v, msg := checkBatch(&w.seq.Items[o.Item], body)
	if v == opOK {
		w.results[o.Index] = r
	}
	return v, msg
}

// finish reports cold-mix's economy and accuracy and reconciles the
// client's tallies with the daemon's counters.
func (w *coldMix) finish(b *bench, ph *phase) (string, error) {
	rep := b.rep
	var probes, cacheable int64
	var dwell float64
	var success, chainPairs, chainEscalations int
	for i, r := range w.results {
		if w.seq.Items[w.seq.Ops[i].Item].Req.Cacheable() {
			cacheable++
		}
		if r == nil {
			continue
		}
		probes += int64(r.res.Probes)
		dwell += r.res.ExperimentS
		if r.res.Success {
			success++
		}
		if ch := r.res.Chain; ch != nil {
			for _, p := range ch.Pairs {
				chainPairs++
				chainEscalations += max(len(p.Attempts)-1, 0)
			}
		}
	}
	ops := float64(ph.okOps)
	rep.set("probes_per_op", ratio(float64(probes), ops))
	rep.set("dwell_s_per_op", ratio(dwell, ops))
	rep.set("success_rate", ratio(float64(success), ops))
	rep.set("chainx.escalation_rate", ratio(float64(chainEscalations), float64(chainPairs)))

	a, z := ph.before.stats, ph.after.stats
	misses := z.Cache.Misses - a.Cache.Misses
	rep.check("cold-misses", misses == cacheable && z.Cache.Hits == a.Cache.Hits && z.Cache.Coalesced == a.Cache.Coalesced,
		"cache misses %d, hits %d, coalesced %d for %d cacheable ops attempted", misses,
		z.Cache.Hits-a.Cache.Hits, z.Cache.Coalesced-a.Cache.Coalesced, cacheable)
	// A failed op's probes reach the daemon's counter but no result, so
	// with failures the counter can only exceed the results' sum.
	mp := z.methodProbeTotal() - a.methodProbeTotal()
	rep.check("probe-accounting", mp == probes || (rep.failed > 0 && mp > probes),
		"methodProbes delta %d, result probes %d", mp, probes)
	reportServiceCounters(rep, ph, b.rep.prov.VgxdWorkers)
	return digestResults(w.results), nil
}

func (w *coldMix) traceSetUp(b *bench) (*server, error) {
	srv, err := b.start("vgxd-traced.log", "-data-dir", b.path("data-traced"))
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{DataDir: b.path("inproc")})
	if err != nil {
		return nil, err
	}
	w.svc, w.pool = svc, sched.New(0)
	w.tallies = make([]*layerTally, b.clients)
	w.apiOver = make([][]float64, b.clients)
	for c := range w.tallies {
		w.tallies[c] = &layerTally{}
	}
	return srv, nil
}

// layers replays op o in process: canonicalisation, the service's own
// Batch (a cache miss, like the daemon's), and the op's pipeline on a
// freshly built device.
func (w *coldMix) layers(c int, o op, rec *recorder, opSpan int32, rtt time.Duration) {
	ctx := context.Background()
	it := &w.seq.Items[o.Item]
	req := *it.Req
	rec.timed(o.Index, opSpan, "service.canon", func() { _, _ = req.Hash() })
	batch := rec.begin(o.Index, opSpan, "service.batch")
	w.svc.Batch(ctx, []service.Request{req})
	rec.end(batch)
	w.apiOver[c] = append(w.apiOver[c], float64(rtt-rec.spans[batch].dur()))
	t := w.tallies[c]
	if req.ChainSim != nil {
		t.chainOnce(ctx, rec, o.Index, opSpan, w.pool, *req.ChainSim)
		return
	}
	t.extractOnce(ctx, rec, o.Index, opSpan, it.Label, *req.Sim)
}

func (w *coldMix) traceFinish(b *bench, traced *phase, ts *traceSummary) (string, error) {
	rep := b.rep
	var over []float64
	for _, o := range w.apiOver {
		over = append(over, o...)
	}
	rep.set("api.overhead_ms", median(over)/1e6)
	rep.set("service.canon_us", ts.medianUS("service.canon"))
	reportDeviceLayers(rep, ts, mergeTallies(w.tallies))
	return digestResults(w.results), nil
}

func (w *coldMix) close() {
	if w.svc != nil {
		_ = w.svc.Close(context.Background())
	}
	if w.pool != nil {
		_ = w.pool.Close(context.Background())
	}
}
