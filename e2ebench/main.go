// Command e2ebench is the end-to-end benchmark of the vgxd daemon. It
// starts vgxd, built from the same checkout, as a child process on a
// loopback port and drives it over HTTP, closed loop, with one of three
// workloads:
//
//	cold-mix    every op a never-seen extraction request of a fixed kind mix
//	hot-repeat  Zipf draws from a cached working set on a 2-shard daemon
//	fleet-loop  fleet ticks over 12 drifting double dots and 4 chains
//
// Run it from the repository root through its build script:
//
//	bash e2ebench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
//
// Each workload sends a fixed op sequence generated from --seed and sized
// by --seconds, so the probe, dwell and accuracy metrics repeat exactly for
// a seed. End-to-end metrics come from an untraced pass. With --trace 1 a
// second pass replays the same ops on a fresh daemon while timing the
// benchmark's own calls into each layer's public entry points; it reports
// the per-layer metrics and writes its spans to
// .bench_build/runs/spans-<workload>.jsonl. Every metric is printed as
// "metric <name> <value> <unit>", and the last line of standard output is
// one JSON object:
//
//	{"correct":true,"attempted":3500,"failed":0,"metrics":{...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
)

// metricDef declares one metric the benchmark reports.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics, reported by every workload from
// the untraced pass.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MiB"},
	{"probes_per_op", "count"},
	{"dwell_s_per_op", "s"},
	{"success_rate", "frac"},
}

// perLayer lists the per-layer metrics, reported by every workload from a
// traced run. A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"api.overhead_ms", "ms"},
	{"api.resp_bytes", "B"},
	{"service.canon_us", "us"},
	{"shard.route_us", "us"},
	{"shard.imbalance", "x"},
	{"cache.hit_rate", "frac"},
	{"cache.hit_us", "us"},
	{"cache.evictions", "count"},
	{"sched.queue_wait_ms", "ms"},
	{"sched.run_ms", "ms"},
	{"sched.busy_frac", "frac"},
	{"device.build_us", "us"},
	{"device.probe_ns", "ns"},
	{"device.probe_frac", "frac"},
	{"core.extract_ms", "ms"},
	{"core.adaptive_ms", "ms"},
	{"core.probes", "count"},
	{"infogain.extract_ms", "ms"},
	{"infogain.probes", "count"},
	{"infogain.ci_miss_rate", "frac"},
	{"rays.extract_ms", "ms"},
	{"baseline.extract_ms", "ms"},
	{"virtualgate.verify_ms", "ms"},
	{"virtualgate.verify_probes", "count"},
	{"chainx.extract_ms", "ms"},
	{"chainx.escalation_rate", "frac"},
	{"surrogate.hit_ratio", "frac"},
	{"store.append_us", "us"},
	{"store.appends_per_op", "count"},
	{"store.compactions", "count"},
	{"store.warm_start_ms", "ms"},
	{"telemetry.spans_per_op", "count"},
	{"tsdb.scrape_us", "us"},
	{"fleet.tick_ms", "ms"},
	{"fleet.checks_per_tick", "count"},
	{"fleet.recals_per_tick", "count"},
	{"fleet.partial_recals", "count"},
	{"fleet.probes_per_recal", "count"},
	{"fleet.failed_cal_rate", "frac"},
	{"fleet.staleness_mean", "score"},
	{"table1.fast_success", "count"},
	{"table1.baseline_success", "count"},
	{"table1.fast_probe_pct", "%"},
	{"table1.dwell_speedup", "x"},
	{"trace.unattributed_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-mix, hot-repeat or fleet-loop")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed sends the same op sequence")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sizes the fixed op count")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.StringVar(&cfg.vgxd, "vgxd", "", "path of the vgxd binary under test")
	flag.StringVar(&cfg.work, "work", "", "directory for daemon data dirs, logs and the traced pass's spans")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.vgxd == "" || cfg.work == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -vgxd, -work, -seconds >= 1 and -trace 0|1 (run it through e2ebench/run.sh)")
		os.Exit(2)
	}
	w, ok := workloads()[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := runBench(ctx, cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, cfg.trace)
}

// workloads maps each workload name to a fresh instance.
func workloads() map[string]workload {
	return map[string]workload{
		"cold-mix":   &coldMix{},
		"hot-repeat": &hotRepeat{},
		"fleet-loop": &fleetLoop{},
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, then the JSON result line.
func (r *report) print(out io.Writer, traced bool) {
	prov, _ := json.Marshal(r.prov)
	fmt.Fprintf(out, "provenance %s\n", prov)
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	fmt.Fprintf(out, "metric failed_frac %.6g frac (attempted %d, failed %d)\n",
		ratio(float64(r.failed), float64(r.attempted)), r.attempted, r.failed)
	defs := endToEnd
	if traced {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(out, "metric %s %.6g %s\n", d.name, v, d.unit)
		} else {
			fmt.Fprintf(out, "metric %s 0 %s (not exercised by this workload)\n", d.name, d.unit)
		}
	}
	fmt.Fprintf(out, "digest results %s\n", r.digest)
	correct := true
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status, correct = "FAIL", false
		}
		fmt.Fprintf(out, "check %s %s %s\n", status, c.name, c.detail)
	}
	res := result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	defs = endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = 0, false
			fmt.Fprintf(out, "check FAIL finite %s is not a finite number\n", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
}
