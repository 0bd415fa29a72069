package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// fleetLoop: one client ticks the fleet clock of a daemon monitoring 12
// drifting double dots and 4 four-dot chains. The extraction code runs
// differently here: spot-checks (virtualgate.Verify) and re-extractions
// under the fleet's priority and budget loop, every tick journaling fleet
// state and scraping the tsdb. The cache and infogain do nothing.
type fleetLoop struct {
	seq     *opSeq
	devs    []fleet.DeviceConfig
	reports []json.RawMessage // by op index, per pass

	// traced pass
	svc     *service.Service
	tally   *layerTally
	apiOver []float64
}

func (w *fleetLoop) opsPerSecond() float64 { return 100 }
func (w *fleetLoop) clients(int) int       { return 1 }

func (w *fleetLoop) generate(seed uint64, n, clients int) (*opSeq, error) {
	devs, err := fleetDevices(seed)
	if err != nil {
		return nil, err
	}
	w.devs = devs
	seq, err := fleetLoopSeq(devs, n)
	w.seq = seq
	return seq, err
}

func (w *fleetLoop) prepare(b *bench) error { return nil }

// setUp starts a fresh daemon and registers the fleet; registration is
// part of what setup_s times.
func (w *fleetLoop) setUp(b *bench, k int) (*server, error) {
	return w.launch(b, fmt.Sprint(k))
}

func (w *fleetLoop) launch(b *bench, tag string) (*server, error) {
	srv, err := b.start("vgxd-"+tag+".log", "-data-dir", b.path("fleet-"+tag))
	if err != nil {
		return nil, err
	}
	d := newEndpoint(srv.base, 1)
	defer d.close()
	for _, it := range w.seq.Setup {
		if err := d.postJSON(b.ctx, it.Path, it.Body, nil); err != nil {
			return nil, fmt.Errorf("register: %w", err)
		}
	}
	return srv, nil
}

func (w *fleetLoop) beginPass() { w.reports = make([]json.RawMessage, len(w.seq.Ops)) }

// check validates one tick reply: one report, and the fleet clock at
// exactly this tick's virtual time.
func (w *fleetLoop) check(o op, body []byte) (verdict, string) {
	var resp struct {
		Now     float64           `json:"now"`
		Reports []json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return opWrong, "tick: decode: " + err.Error()
	}
	if len(resp.Reports) != 1 {
		return opWrong, fmt.Sprintf("tick: %d reports for one tick", len(resp.Reports))
	}
	if want := float64(o.Index+1) * fleetTickS; math.Abs(resp.Now-want) > 1e-6 {
		return opWrong, fmt.Sprintf("tick %d: fleet clock %v, want %v", o.Index, resp.Now, want)
	}
	w.reports[o.Index] = resp.Reports[0]
	return opOK, ""
}

func (w *fleetLoop) finish(b *bench, ph *phase) (string, error) {
	rep := b.rep
	var probes, recalProbes, checks, recals int
	for _, raw := range w.reports {
		if raw == nil {
			continue
		}
		var tr fleet.TickReport
		if err := json.Unmarshal(raw, &tr); err != nil {
			return "", err
		}
		probes += tr.CheckProbes + tr.RecalProbes
		recalProbes += tr.RecalProbes
		checks += len(tr.Checked)
		recals += len(tr.Recalibrated)
	}
	s0, s1 := ph.before.fleet, ph.after.fleet
	spent := s1.ProbesSpent - s0.ProbesSpent
	rep.check("fleet-probes", spent == probes, "fleet probes spent %d, tick reports %d", spent, probes)
	cals := s1.Calibrations - s0.Calibrations + s1.Recalibrations - s0.Recalibrations
	failed := s1.FailedCals - s0.FailedCals
	ops := float64(ph.okOps)
	rep.set("probes_per_op", ratio(float64(probes), ops))
	// Fleet instruments charge the fixed per-probe dwell, so a tick's
	// instrument time is its probe count times that dwell.
	rep.set("dwell_s_per_op", ratio(float64(probes)*device.DefaultDwell.Seconds(), ops))
	rep.set("success_rate", ratio(float64(cals), float64(cals+failed)))
	rep.set("fleet.checks_per_tick", ratio(float64(checks), ops))
	rep.set("fleet.recals_per_tick", ratio(float64(recals), ops))
	rep.set("fleet.partial_recals", float64(s1.PartialRecals-s0.PartialRecals))
	rep.set("fleet.probes_per_recal", ratio(float64(recalProbes), float64(recals)))
	rep.set("fleet.failed_cal_rate", ratio(float64(failed), float64(cals+failed)))

	var stale []float64
	finite := true
	for _, d := range s1.Devices {
		for _, p := range d.Pairs {
			for _, v := range []float64{p.A12, p.A21, p.SteepSlope, p.ShallowSlope, p.Staleness} {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
			if p.Calibrated && p.State != fleet.StateLost {
				stale = append(stale, p.Staleness)
			}
		}
	}
	rep.check("fleet-finite", finite, "matrix entries and staleness of %d devices", len(s1.Devices))
	rep.set("fleet.staleness_mean", mean(stale))
	rep.note("fleet after %d ticks: %d calibrations, %d failed, %d of %d pairs tracked",
		len(w.seq.Ops), cals, failed, len(stale), s1.PairCount)
	reportServiceCounters(rep, ph, rep.prov.VgxdWorkers)
	return w.digest(s1)
}

// digest hashes the tick reports in order and the final fleet status;
// none of them carries a wall-clock field.
func (w *fleetLoop) digest(final *fleet.Status) (string, error) {
	h := sha256.New()
	for _, raw := range w.reports {
		if raw == nil {
			h.Write([]byte("-"))
			continue
		}
		d := canonicalDigest(raw)
		h.Write(d[:])
	}
	b, err := json.Marshal(final)
	if err != nil {
		return "", err
	}
	d := canonicalDigest(b)
	h.Write(d[:])
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// traceSetUp starts a fresh registered daemon and an in-process service
// with the same fleet.
func (w *fleetLoop) traceSetUp(b *bench) (*server, error) {
	srv, err := w.launch(b, "traced")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{DataDir: b.path("fleet-inproc")})
	if err != nil {
		return nil, err
	}
	w.svc = svc
	for _, cfg := range w.devs {
		if _, err := svc.Fleet().Register(cfg); err != nil {
			return nil, err
		}
	}
	w.tally = &layerTally{}
	return srv, nil
}

// layers ticks the in-process fleet as the daemon's handler does (Tick,
// then ScrapeNow). Under the first op, which calibrates every pair, it
// also replays each pair's first calibration: build the device, advance
// it one tick, extract, and record the spot-check baseline.
func (w *fleetLoop) layers(c int, o op, rec *recorder, opSpan int32, rtt time.Duration) {
	ctx := context.Background()
	if o.Index == 0 {
		w.replayFirstCalibration(ctx, rec, opSpan)
	}
	fm := w.svc.Fleet()
	tick := rec.begin(o.Index, opSpan, "fleet.tick")
	_, _ = fm.Tick(ctx, fleetTickS)
	rec.end(tick)
	scrape := rec.begin(o.Index, opSpan, "tsdb.scrape")
	w.svc.ScrapeNow(fm.Now())
	rec.end(scrape)
	w.apiOver = append(w.apiOver, float64(rtt-rec.spans[tick].dur()-rec.spans[scrape].dur()))
}

func (w *fleetLoop) replayFirstCalibration(ctx context.Context, rec *recorder, opSpan int32) {
	pol := w.svc.Fleet().Policy()
	check := virtualgate.VerifyConfig{AlongFracs: pol.CheckFracs, ScanFrac: pol.CheckScanFrac, MaxShiftFrac: pol.MaxShiftFrac}
	advance := time.Duration(fleetTickS * float64(time.Second))
	calibrate := func(pt *probeTimer, win csd.Window) {
		src := csd.PixelSource{Src: pt, Win: win}
		before := pt.Stats().UniqueProbes
		var cr *core.Result
		var err error
		w.tally.probeCall(rec, 0, opSpan, "core.extract", pt, func() { cr, err = core.Extract(src, win, core.Config{}) })
		mid := pt.Stats().UniqueProbes
		w.tally.coreProbes = append(w.tally.coreProbes, float64(mid-before))
		if err != nil {
			return
		}
		v1, v2 := cr.TriplePointVoltage(win)
		w.tally.probeCall(rec, 0, opSpan, "virtualgate.verify", pt, func() {
			_, _ = virtualgate.Verify(ctx, pt, win, cr.Matrix, v1, v2, check)
		})
		w.tally.verifyProbes = append(w.tally.verifyProbes, float64(pt.Stats().UniqueProbes-mid))
	}
	for _, cfg := range w.devs {
		if cfg.Chain == nil {
			spec := cfg.Spec
			var inst *device.SimInstrument
			var win csd.Window
			var err error
			rec.timed(0, opSpan, "device.build", func() { inst, win, err = spec.Build() })
			if err != nil {
				continue
			}
			inst.Advance(advance)
			calibrate(&probeTimer{in: inst}, win)
			continue
		}
		spec := *cfg.Chain
		spec.FillDefaults()
		for i := 0; i < spec.Dots-1; i++ {
			var pv *device.PairView
			var win csd.Window
			var err error
			rec.timed(0, opSpan, "device.build", func() { pv, win, err = spec.BuildPair(i) })
			if err != nil {
				continue
			}
			pv.M.Advance(advance)
			calibrate(&probeTimer{in: pv}, win)
		}
	}
}

func (w *fleetLoop) traceFinish(b *bench, traced *phase, ts *traceSummary) (string, error) {
	rep := b.rep
	rep.set("api.overhead_ms", median(w.apiOver)/1e6)
	rep.set("fleet.tick_ms", ts.medianMS("fleet.tick"))
	rep.set("tsdb.scrape_us", ts.medianUS("tsdb.scrape"))
	reportDeviceLayers(rep, ts, w.tally)
	return w.digest(traced.after.fleet)
}

func (w *fleetLoop) close() {
	if w.svc != nil {
		_ = w.svc.Close(context.Background())
	}
}
