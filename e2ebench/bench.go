package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	vgxd     string
	work     string
}

// minOps keeps every workload's op count high enough for a p99 with ten
// samples beyond it.
const minOps = 1000

// setups is how many times a run sets up its daemon; setup_s is their
// median, since a single start-up of a few milliseconds is mostly noise.
const setups = 15

// workload is one traffic mix. The bench calls, in order: generate,
// prepare, setUp (timed, setups times), then for each pass beginPass
// and check per response; finish after the untraced pass; traceSetUp,
// layers per op and traceFinish for the traced pass; close at the end.
type workload interface {
	// opsPerSecond sizes the fixed op count: seconds × opsPerSecond.
	opsPerSecond() float64
	clients(nproc int) int
	generate(seed uint64, n, clients int) (*opSeq, error)
	// prepare runs once, untimed, before the first set-up.
	prepare(b *bench) error
	// setUp launches a daemon ready to serve the first op; setup_s times it.
	setUp(b *bench, k int) (*server, error)
	beginPass()
	check(o op, body []byte) (verdict, string)
	// finish reports the workload's end-to-end metrics and checks from the
	// untraced pass and returns the results digest.
	finish(b *bench, ph *phase) (string, error)
	// traceSetUp launches a fresh daemon and builds the in-process objects
	// the traced pass calls into.
	traceSetUp(b *bench) (*server, error)
	layers(c int, o op, rec *recorder, opSpan int32, rtt time.Duration)
	// traceFinish reports the per-layer metrics and returns the traced
	// pass's results digest.
	traceFinish(b *bench, traced *phase, ts *traceSummary) (string, error)
	close()
}

// phase is one pass's measurements.
type phase struct {
	outs          []outcome
	wall          time.Duration
	cpu           time.Duration
	rssMB         float64 // median of the samples taken during the pass
	rssPeakMB     float64 // high-water mark since the daemon started
	before, after *snapshot
	okOps         int
}

// bench is one benchmark invocation.
type bench struct {
	cfg     config
	ctx     context.Context
	dir     string // this run's temporary directory
	seq     *opSeq
	clients int
	live    []*server
	rep     *report
}

// report collects everything a run prints.
type report struct {
	values    map[string]float64
	checks    []checkResult
	notes     []string
	prov      provenance
	digest    string
	attempted int
	failed    int
}

type checkResult struct {
	name, detail string
	ok           bool
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// provenance records what produced a run, so two runs are known to have
// measured the same code on the same inputs.
type provenance struct {
	Commit       string `json:"commit"`
	SourceDigest string `json:"sourceDigest"`
	GoVersion    string `json:"goVersion"`
	CPUModel     string `json:"cpuModel"`
	NProc        int    `json:"nproc"`
	VgxdWorkers  int    `json:"vgxdWorkers"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Clients      int    `json:"clients"`
	Ops          int    `json:"ops"`
	OpsDigest    string `json:"opsDigest"`
}

// path returns a path inside this run's temporary directory.
func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// start launches vgxd with args and tracks it for shutdown.
func (b *bench) start(logName string, args ...string) (*server, error) {
	s, err := startServer(b.ctx, b.cfg.vgxd, b.path(logName), args...)
	if err != nil {
		return nil, err
	}
	b.live = append(b.live, s)
	return s, nil
}

// stopAll drains every daemon still running.
func (b *bench) stopAll() error {
	var first error
	for _, s := range b.live {
		if err := s.stop(); err != nil && first == nil {
			first = err
		}
	}
	b.live = nil
	return first
}

// runBench runs one workload end to end and returns its report.
func runBench(ctx context.Context, cfg config, w workload) (*report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, ctx: ctx, dir: dir, rep: &report{values: make(map[string]float64)}}
	defer w.close()
	defer b.stopAll()
	if err := b.run(w); err != nil {
		return nil, err
	}
	if err := b.stopAll(); err != nil {
		return nil, err
	}
	return b.rep, nil
}

func (b *bench) run(w workload) error {
	nproc := runtime.NumCPU()
	b.clients = w.clients(nproc)
	n := max(minOps, int(math.Round(w.opsPerSecond()*float64(b.cfg.seconds))))
	seq, err := w.generate(b.cfg.seed, n, b.clients)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	b.seq = seq
	rep := b.rep
	rep.prov = provenance{
		GoVersion: runtime.Version(), CPUModel: cpuModel(), NProc: nproc,
		Workload: b.cfg.workload, Seed: b.cfg.seed, Seconds: b.cfg.seconds,
		Clients: b.clients, Ops: len(seq.Ops), OpsDigest: seq.Digest(),
	}
	rep.prov.Commit, rep.prov.SourceDigest = sourceIdentity(".")

	if err := w.prepare(b); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	var setupS []float64
	var srv *server
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		s, err := w.setUp(b, k)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k < setups-1 {
			if err := s.stop(); err != nil {
				return err
			}
			continue
		}
		srv = s
	}
	var health struct {
		Workers int `json:"workers"`
	}
	hd := newEndpoint(srv.base, 1)
	err = hd.getJSON(b.ctx, "/v1/healthz", &health)
	hd.close()
	if err != nil {
		return err
	}
	rep.prov.VgxdWorkers = health.Workers

	ph, _, err := b.measure(w, srv, nil)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	rep.attempted = len(ph.outs)
	rep.failed = len(ph.outs) - ph.okOps
	b.reportCommon(ph, setupS)
	if rep.digest, err = w.finish(b, ph); err != nil {
		return err
	}
	if !b.cfg.trace {
		return nil
	}

	tsrv, err := w.traceSetUp(b)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	tph, recs, err := b.measure(w, tsrv, w.layers)
	if err != nil {
		return err
	}
	if err := tsrv.stop(); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(b.cfg.work, "spans-"+b.cfg.workload+".jsonl"), recs); err != nil {
		return err
	}
	ts := summarize(recs)
	rep.set("trace.unattributed_frac", ratio(ts.opSelf, ts.opWall))
	rep.set("trace.overhead_frac", ratio(median(ts.durs["http"]), median(latenciesNS(ph)))-1)
	tdigest, err := w.traceFinish(b, tph, ts)
	if err != nil {
		return err
	}
	rep.check("traced-results", tdigest == rep.digest, "traced pass digest %s", tdigest)
	rep.check("traced-failures", countVerdict(tph.outs, opOK) == len(tph.outs),
		"%d of %d traced ops failed or were wrong", len(tph.outs)-countVerdict(tph.outs, opOK), len(tph.outs))
	return nil
}

// measure runs one pass over the op sequence against srv, recording the
// daemon's CPU, resident set and counters around it.
func (b *bench) measure(w workload, srv *server, layers layerFunc) (*phase, []*recorder, error) {
	d := newEndpoint(srv.base, b.clients)
	defer d.close()
	before, err := takeSnapshot(b.ctx, d)
	if err != nil {
		return nil, nil, err
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, nil, err
	}
	w.beginPass()
	p := &pass{d: d, seq: b.seq, clients: b.clients, check: w.check, layers: layers}
	stopRSS := make(chan struct{})
	rssCh := srv.sampleRSS(stopRSS, 100*time.Millisecond)
	outs, wall, err := p.run(b.ctx)
	close(stopRSS)
	rssSamples := <-rssCh
	if err != nil {
		return nil, nil, err
	}
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, nil, err
	}
	// The reported resident set is the median of the samples: the peak is
	// set by transient journal-compaction buffers and swings with GC timing.
	if len(rssSamples) == 0 {
		last, err := srv.memMB("VmRSS")
		if err != nil {
			return nil, nil, err
		}
		rssSamples = []float64{last}
	}
	peak, err := srv.memMB("VmHWM")
	if err != nil {
		return nil, nil, err
	}
	after, err := takeSnapshot(b.ctx, d)
	if err != nil {
		return nil, nil, err
	}
	ph := &phase{outs: outs, wall: wall, cpu: cpu1 - cpu0, rssMB: median(rssSamples), rssPeakMB: peak,
		before: before, after: after, okOps: countVerdict(outs, opOK)}
	return ph, p.recs, nil
}

// reportCommon derives the end-to-end metrics every workload shares.
func (b *bench) reportCommon(ph *phase, setupS []float64) {
	rep := b.rep
	lat := latenciesNS(ph)
	sort.Float64s(lat)
	p50, _ := percentile(lat, 0.50)
	p99, ok99 := percentile(lat, 0.99)
	if !ok99 && len(lat) > 0 {
		p99 = lat[len(lat)-1]
	}
	rep.check("p99-support", ok99, "%d latency samples", len(lat))
	rep.set("ops_per_s", float64(ph.okOps)/ph.wall.Seconds())
	rep.set("latency_p50_ms", p50/1e6)
	rep.set("latency_p99_ms", p99/1e6)
	rep.set("setup_s", median(setupS))
	rep.set("cpu_ms_per_op", ratio(float64(ph.cpu.Milliseconds()), float64(ph.okOps)))
	rep.set("rss_mb", ph.rssMB)
	rep.note("measured %d ops in %.3fs with %d clients; %d latency samples; setup_s samples %v",
		len(ph.outs), ph.wall.Seconds(), b.clients, len(lat), roundAll(setupS, 4))
	rep.note("vgxd resident set: median %.1f MiB while measuring, peak %.1f MiB", ph.rssMB, ph.rssPeakMB)
	for i, o := range ph.outs {
		if o.v != opOK {
			rep.note("first problem: op %d: %s", i, o.problem)
			break
		}
	}
	rep.check("no-wrong-results", countVerdict(ph.outs, opWrong) == 0,
		"%d results failed the output checks", countVerdict(ph.outs, opWrong))
}

// latenciesNS returns the latencies of the phase's successful ops, in ns.
func latenciesNS(ph *phase) []float64 {
	out := make([]float64, 0, len(ph.outs))
	for _, o := range ph.outs {
		if o.v == opOK {
			out = append(out, float64(o.lat))
		}
	}
	return out
}

func countVerdict(outs []outcome, v verdict) int {
	n := 0
	for _, o := range outs {
		if o.v == v {
			n++
		}
	}
	return n
}

// meanBytes is the mean response body size of successful ops.
func meanBytes(ph *phase) float64 {
	total := 0
	for _, o := range ph.outs {
		if o.v == opOK {
			total += o.bytes
		}
	}
	return ratio(float64(total), float64(ph.okOps))
}

func roundAll(vs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = math.Round(v*p) / p
	}
	return out
}

// cpuModel reads the first CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceIdentity returns the checkout's git commit (empty when root is not
// the top of a git work tree) and a digest of its Go sources and module
// files, which identifies the code even where there is no git metadata.
func sourceIdentity(root string) (commit, digest string) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, _ = io.Copy(h, f)
		return nil
	})
	return commit, hex.EncodeToString(h.Sum(nil)[:16])
}
