package main

// In-process calls the traced pass makes into the extraction layers'
// public entry points, on the same inputs an op sent to the daemon.

import (
	"context"
	"sync"
	"time"

	"github.com/fastvg/fastvg/internal/baseline"
	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/infogain"
	"github.com/fastvg/fastvg/internal/rays"
	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// probeTimer wraps an instrument and sums the wall time spent inside its
// probe calls. It keeps the batched CurrentRow, ProbeMany and AcquireGrid
// paths of the instrument it wraps, so the pipelines probe exactly as they
// do on the bare instrument.
type probeTimer struct {
	in     chainx.PairInstrument
	points int64
	spent  time.Duration
}

// timerCost is the measured cost of one time.Now/time.Since pair, taken off
// every timed probe call so probe_ns reports the probe, not the clock.
var timerCost = sync.OnceValue(func() time.Duration {
	const n = 200000
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return time.Since(t0) / n
})

func (p *probeTimer) add(t0 time.Time, points int) {
	p.spent += time.Since(t0) - timerCost()
	p.points += int64(points)
}

func (p *probeTimer) GetCurrent(v1, v2 float64) float64 {
	t0 := time.Now()
	v := p.in.GetCurrent(v1, v2)
	p.add(t0, 1)
	return v
}

func (p *probeTimer) Stats() device.Stats { return p.in.Stats() }

func (p *probeTimer) CurrentRow(v2 float64, v1s, out []float64) {
	t0 := time.Now()
	if rg, ok := p.in.(csd.RowGetter); ok {
		rg.CurrentRow(v2, v1s, out)
	} else {
		for i, v1 := range v1s {
			out[i] = p.in.GetCurrent(v1, v2)
		}
	}
	p.add(t0, len(v1s))
}

func (p *probeTimer) ProbeMany(v1s, v2s, out []float64) {
	t0 := time.Now()
	if bi, ok := p.in.(device.BatchInstrument); ok {
		bi.ProbeMany(v1s, v2s, out)
	} else {
		for i := range v1s {
			out[i] = p.in.GetCurrent(v1s[i], v2s[i])
		}
	}
	p.add(t0, len(v1s))
}

func (p *probeTimer) AcquireGrid(w csd.Window, workers int) (*grid.Grid, error) {
	t0 := time.Now()
	var g *grid.Grid
	var err error
	if ga, ok := p.in.(csd.GridAcquirer); ok {
		g, err = ga.AcquireGrid(w, workers)
	} else {
		g, err = csd.Acquire(p.in, w)
	}
	p.add(t0, w.Cols*w.Rows)
	return g, err
}

// lap returns the probe points and time since the last lap and resets them.
func (p *probeTimer) lap() (int64, time.Duration) {
	n, d := p.points, p.spent
	p.points, p.spent = 0, 0
	return n, d
}

// methodSpans are the spans of pipeline entry points; device.probe_frac is
// probe time over their summed duration.
var methodSpans = []string{
	"core.extract", "core.adaptive", "rays.extract", "infogain.extract",
	"baseline.extract", "virtualgate.verify", "chainx.extract",
}

// layerTally accumulates one client's traced-pass counts.
type layerTally struct {
	probePoints  int64
	probeTime    time.Duration
	coreProbes   []float64
	igProbes     []float64
	verifyProbes []float64
}

// probeCall times fn as span name under parent, with the probes it made
// through pt recorded as an aggregated device.probe child.
func (t *layerTally) probeCall(rec *recorder, op int, parent int32, name string, pt *probeTimer, fn func()) {
	id := rec.begin(op, parent, name)
	fn()
	rec.end(id)
	n, d := pt.lap()
	t.probePoints += n
	t.probeTime += d
	rec.aggregate(id, "device.probe", d)
}

// extractOnce replays one single-device extraction op in process: build
// the device, run the op's pipeline on it through a probe timer, and for
// verify ops check the matrix on the same device.
func (t *layerTally) extractOnce(ctx context.Context, rec *recorder, op int, parent int32, label string, spec device.DoubleDotSpec) {
	var inst *device.SimInstrument
	var win csd.Window
	var err error
	rec.timed(op, parent, "device.build", func() { inst, win, err = spec.Build() })
	if err != nil {
		return
	}
	pt := &probeTimer{in: inst}
	src := csd.PixelSource{Src: pt, Win: win}
	switch label {
	case "fast", "twin", "verify":
		var cr *core.Result
		var cerr error
		t.probeCall(rec, op, parent, "core.extract", pt, func() { cr, cerr = core.Extract(src, win, core.Config{}) })
		t.coreProbes = append(t.coreProbes, float64(inst.Stats().UniqueProbes))
		if label != "verify" || cerr != nil {
			return
		}
		before := inst.Stats().UniqueProbes
		v1, v2 := cr.TriplePointVoltage(win)
		t.probeCall(rec, op, parent, "virtualgate.verify", pt, func() {
			_, _ = virtualgate.Verify(ctx, pt, win, cr.Matrix, v1, v2, virtualgate.VerifyConfig{})
		})
		t.verifyProbes = append(t.verifyProbes, float64(inst.Stats().UniqueProbes-before))
	case "adaptive":
		t.probeCall(rec, op, parent, "core.adaptive", pt, func() {
			_, _ = core.ExtractAdaptive(src, win, core.AdaptiveConfig{CoarseFactor: core.DefaultCoarseFactor})
		})
	case "rays":
		t.probeCall(rec, op, parent, "rays.extract", pt, func() { _, _ = rays.Extract(src, win, rays.Config{}) })
	case "infogain":
		t.probeCall(rec, op, parent, "infogain.extract", pt, func() { _, _ = infogain.Extract(src, win, infogain.Config{}) })
		t.igProbes = append(t.igProbes, float64(inst.Stats().UniqueProbes))
	case "baseline":
		t.probeCall(rec, op, parent, "baseline.extract", pt, func() { _, _ = baseline.Extract(pt, win, baseline.Config{}) })
	}
}

// chainOnce replays one chain op in process: build every pair device,
// then run the chain planner with each pair instrument behind a probe
// timer.
func (t *layerTally) chainOnce(ctx context.Context, rec *recorder, op int, parent int32, pool *sched.Pool, spec device.ChainSpec) {
	spec.FillDefaults()
	for i := 0; i < spec.Dots-1; i++ {
		s := spec
		rec.timed(op, parent, "device.build", func() { _, _, _ = s.BuildPair(i) })
	}
	src, err := chainx.NewSpecSource(spec, nil)
	if err != nil {
		return
	}
	var mu sync.Mutex
	var timers []*probeTimer
	cfg := chainx.Config{Wrap: func(_ int, inst chainx.PairInstrument) chainx.PairInstrument {
		pt := &probeTimer{in: inst}
		mu.Lock()
		timers = append(timers, pt)
		mu.Unlock()
		return pt
	}}
	id := rec.begin(op, parent, "chainx.extract")
	_, _ = chainx.Extract(ctx, pool, src, cfg)
	rec.end(id)
	var total time.Duration
	for _, pt := range timers {
		n, d := pt.lap()
		t.probePoints += n
		total += d
	}
	t.probeTime += total
	// Pairs probe concurrently, so their summed probe time can exceed the
	// chain's wall; the aggregate child is capped at the parent's length.
	total = min(total, rec.spans[id].dur())
	rec.aggregate(id, "device.probe", total)
}

// mergeTallies folds per-client tallies together.
func mergeTallies(ts []*layerTally) *layerTally {
	out := &layerTally{}
	for _, t := range ts {
		out.probePoints += t.probePoints
		out.probeTime += t.probeTime
		out.coreProbes = append(out.coreProbes, t.coreProbes...)
		out.igProbes = append(out.igProbes, t.igProbes...)
		out.verifyProbes = append(out.verifyProbes, t.verifyProbes...)
	}
	return out
}

// reportDeviceLayers sets the device, core, pipeline and verify metrics
// from a traced pass.
func reportDeviceLayers(rep *report, ts *traceSummary, t *layerTally) {
	rep.set("device.build_us", ts.medianUS("device.build"))
	rep.set("device.probe_ns", ratio(float64(t.probeTime), float64(t.probePoints)))
	var methodTime float64
	for _, n := range methodSpans {
		for _, d := range ts.durs[n] {
			methodTime += d
		}
	}
	var probeTime float64
	for _, d := range ts.durs["device.probe"] {
		probeTime += d
	}
	rep.set("device.probe_frac", ratio(probeTime, methodTime))
	rep.set("core.extract_ms", ts.medianMS("core.extract"))
	rep.set("core.adaptive_ms", ts.medianMS("core.adaptive"))
	rep.set("core.probes", mean(t.coreProbes))
	rep.set("infogain.extract_ms", ts.medianMS("infogain.extract"))
	rep.set("infogain.probes", mean(t.igProbes))
	rep.set("rays.extract_ms", ts.medianMS("rays.extract"))
	rep.set("baseline.extract_ms", ts.medianMS("baseline.extract"))
	rep.set("virtualgate.verify_ms", ts.medianMS("virtualgate.verify"))
	rep.set("virtualgate.verify_probes", mean(t.verifyProbes))
	rep.set("chainx.extract_ms", ts.medianMS("chainx.extract"))
}

// reportServiceCounters sets the per-layer metrics read from the daemon's
// own counters over the untraced pass.
func reportServiceCounters(rep *report, ph *phase, workers int) {
	a, b := ph.before, ph.after
	ops := float64(ph.okOps)
	dc := service.CacheStats{
		Hits: b.stats.Cache.Hits - a.stats.Cache.Hits, Misses: b.stats.Cache.Misses - a.stats.Cache.Misses,
		Coalesced: b.stats.Cache.Coalesced - a.stats.Cache.Coalesced,
	}
	rep.set("cache.hit_rate", dc.HitRate())
	rep.set("cache.evictions", float64(b.stats.Cache.Evictions-a.stats.Cache.Evictions))
	rep.set("sched.queue_wait_ms", histMean(a, b, "vgx_sched_queue_wait_seconds", 1e3))
	rep.set("sched.run_ms", histMean(a, b, "vgx_sched_run_seconds", 1e3))
	rep.set("sched.busy_frac", ratio(delta(a, b, "vgx_sched_run_seconds_sum"), float64(workers)*ph.wall.Seconds()))
	igDone := delta(a, b, "vgx_infogain_extractions_total")
	igMiss := delta(a, b, "vgx_infogain_ci_misses_total")
	rep.set("infogain.ci_miss_rate", ratio(igMiss, igDone+igMiss))
	hits := float64(b.stats.Surrogate.Hits - a.stats.Surrogate.Hits)
	esc := float64(b.stats.Surrogate.Escalations - a.stats.Surrogate.Escalations)
	rep.set("surrogate.hit_ratio", ratio(hits, hits+esc))
	rep.set("store.append_us", histMean(a, b, "vgx_store_append_seconds", 1e6))
	rep.set("store.appends_per_op", ratio(delta(a, b, "vgx_store_appends_total"), ops))
	rep.set("store.compactions", delta(a, b, "vgx_store_compactions_total"))
	rep.set("telemetry.spans_per_op", ratio(delta(a, b, "vgx_service_spans_total"), ops))
	rep.set("api.resp_bytes", meanBytes(ph))
}

func mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return ratio(s, float64(len(vs)))
}
