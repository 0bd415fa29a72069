// Package fastvg is a Go implementation of fast virtual gate extraction for
// silicon quantum dot devices (Che et al., DAC 2024), together with the
// complete simulation substrate needed to run and evaluate it without
// hardware: a constant-interaction device model, a charge-sensor model,
// realistic measurement noise, dwell-time-accounted instruments, the
// Hough-transform baseline it is compared against, and a 12-benchmark
// synthetic charge-stability-diagram suite mirroring the paper's evaluation.
//
// # Background
//
// A plunger gate on a quantum dot array does not address only its own dot:
// cross-capacitance couples it to the neighbours. Virtual gates fix this by
// recombining physical gate voltages through a virtualization matrix so that
// each virtual knob moves exactly one dot's potential. The matrix entries
// come from the slopes of the charge-state transition lines in a two-gate
// charge stability diagram (CSD). Measuring a full CSD takes minutes because
// every point costs a ~50 ms dwell; this package's Extract probes only ~10%
// of the diagram by exploiting two physics priors — transition lines have
// negative slopes, and the dot's own line is much steeper than its
// neighbour's — to confine an adaptive search to a shrinking triangular
// region around the lines.
//
// # Quick start
//
//	inst, truth, _ := fastvg.NewDoubleDotSim(fastvg.DoubleDotSimOptions{})
//	res, err := fastvg.Extract(inst, inst.Window(), fastvg.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Matrix, res.Probes, res.ExperimentTime)
//	_ = truth
//
// # Serving extractions
//
// Beyond single library calls, the package ships an extraction service
// (internal/service, re-exported here as Service) for workloads where
// extractions arrive as traffic: a typed job model over every pipeline
// (fast, baseline, rays, adaptive, infogain, windowfind, verify), a bounded
// worker-pool scheduler with per-job contexts and deterministic batch
// ordering, a deduplicating LRU result cache keyed by canonical request
// hashes — identical submissions cost zero re-extraction and concurrent
// identical submissions coalesce onto one run — and a session registry
// owning many live instruments concurrently.
//
//	svc, _ := fastvg.NewService(fastvg.ServiceConfig{Workers: 8})
//	res, _ := fastvg.RunJob(ctx, svc, fastvg.JobRequest{Kind: fastvg.JobFast, Benchmark: 6})
//	items := svc.Batch(ctx, fastvg.Table1Requests()) // the paper's Table 1
//
// Command vgxd serves the same service over a JSON HTTP API (submit, batch,
// status, sessions, stats); see README.md for endpoints and a curl
// quickstart, and examples/serving for a self-contained client. A
// repeated batch of cached results costs one cache lookup per request:
// the batch route remembers each all-cached body's requests in canonical
// form, with their hashes and ring keys, and writes the encodings the
// cache entries keep. The daemon
// exposes liveness at /v1/healthz and shuts down gracefully: the scheduler
// drains (running extractions finish, queued jobs settle as cancelled) and
// sessions close, bounded by -draintimeout.
//
// # N-dot chain extraction
//
// Section 2.3 of the paper virtualizes an N-dot linear array by composing
// its N−1 adjacent-pair extractions into one N×N matrix (Chain). The
// planner (internal/chainx, exposed as ExtractChainSpec and as the service
// job kind JobChain) makes that a first-class workload: the chain job is
// decomposed into pair extractions that run concurrently on the shared
// worker pool, under a probe-budget accountant with reservation semantics
// (admission in pair order at wave barriers; a window can never overspend)
// and a per-pair method escalation ladder — a pair whose fast-method
// anchors fail deterministically falls through to the adaptive pass and
// then the ray fan, mirroring the service's deterministic-failure
// semantics, before the pair is recorded as failed.
//
//	spec := fastvg.ChainSimOptions{Dots: 8, Seed: 3}.Spec()
//	res, _ := fastvg.ExtractChainSpec(ctx, spec, fastvg.ChainExtractOptions{Workers: 7})
//
// Each pair probes an independent instrument whose noise and drift derive
// from (spec seed, pair index) alone (ChainSpec.BuildPair), and all
// cross-pair decisions happen serially in pair order, so a chain
// extraction is bit-identical at any worker count while the instrument
// dwell makespan shrinks by the channel count (~6.6× for N=8:
// BenchmarkChainExtract's dots-8-seq dwell-s/op over dots-8-conc
// makespan-s/op in BENCH.txt). Chain jobs are cacheable (the canonical hash covers
// the full per-pair window list and escalation ladder), journaled with one
// per-pair record (store.KindChainPair), and traceable: each pair writes
// its own probe trace, replayable through vgxreplay. Workers: 1 runs the
// same procedure sequentially, pair by pair.
//
// # Fleet calibration
//
// A virtual-gate matrix extracted once goes silently stale: lever arms
// wander under 1/f and drift noise, and charge rearrangements translate the
// honeycomb the matrix was anchored to. The fleet subsystem
// (internal/fleet, re-exported as FleetManager via Service.Fleet) closes
// the loop continuously for many devices at once:
//
//   - Each registered device (FleetDeviceConfig: spec + drift profile +
//     scheduling weight) is monitored with cheap periodic virtualgate.Verify
//     spot-checks on a virtual clock — a handful of short line scans, two
//     orders of magnitude cheaper than a re-extraction.
//   - Staleness is scored against the line positions recorded at
//     calibration time, normalised so 1.0 sits at the drift tolerance; a
//     device whose lines cannot be re-located at all is flagged lost.
//   - Stale devices are re-extracted through the service's own worker pool,
//     highest staleness × weight first, under a global probe budget with
//     reservation-based admission (a budget window can never overspend).
//   - Hysteresis — a healthy/watch band below the threshold plus a
//     per-device cooldown, and the rule that recalibration only ever fires
//     on evidence measured after the previous calibration — guarantees
//     healthy devices are never re-tuned.
//
// Chain devices (FleetDeviceConfig.Chain) bring the N-dot workload into
// the loop with per-pair staleness: every adjacent pair has its own
// instrument, matrix, score, cooldown and hysteresis evidence, so a single
// drifted pair triggers re-extraction of only that pair — partial
// recalibration, roughly an (N−1)-fold probe saving over re-tuning the
// whole array — while fresh neighbouring matrices are reused. A double dot
// is internally a one-pair device; both shapes share one scheduler.
//
// The loop is deterministic: measurement work fans out across workers, but
// each job touches only its own pair's instrument and every scheduling
// decision is made serially in (device ID, pair) order, so a simulated day
// is byte-identical at any worker count. Command vgxfleet runs such a day
// (heterogeneous quiet/standard/wandering/jumpy profiles, plus -chains
// N-dot arrays) and reports recalibrations triggered — partial ones
// counted separately — probes spent against the budget, and worst-case
// staleness; /v1/fleet serves the same loop over HTTP (register, status,
// history, force-recalibrate with ?pair=, tick).
//
// # Surrogate backend
//
// On hardware every probe costs dwell, so the cheapest probe is one that
// never touches the device. internal/surrogate learns a digital twin per
// device — a window-aligned grid of measured currents plus the fitted
// transition-line geometry — and serves probes from it when its confidence
// clears a threshold, escalating the rest to the live instrument
// (surrogate.Hybrid, which satisfies the same instrument contract every
// pipeline probes). Escalated measurements train the twin further; a
// threshold of zero disables twin serving and is byte-identical to the
// wrapped instrument.
//
// A job whose spec sets Surrogate probes twin-first and reports the split
// (hits, escalations, fit state) on its Result. Twin identity is the device
// — the key hashes the spec with the surrogate knobs cleared — so all job
// kinds against one device share a model, plain recorded traces train it
// (POST /v1/surrogate/train), and chain jobs keep one twin per adjacent
// pair. The fleet mounts the same mechanism through
// FleetPolicy.SurrogateThreshold: spot-checks and recalibrations probe
// twin-first, and a drifted pair re-locates its lines with a few short
// guided live scans instead of a full re-raster (delta recalibration),
// cutting the steady-state cost of a matrix refresh by ~6.2× on drift-only
// devices (BenchmarkFleetSurrogateRecalibration's live over surrogate
// probes/recal in BENCH.txt). Twins journal into the store for
// warm-starts. The twin sits on top of a job's probe stack, above the
// trace recorder, so a trace holds exactly the escalated probes plus the
// twin snapshot taken before the first probe, and replay reproduces the
// hybrid's decisions bit for bit.
//
// # Active probing
//
// ExtractInfoGain (internal/infogain) replaces raster scanning with a
// Bayesian active scheduler. Each transition line carries a posterior over
// its geometry — a discrete grid of (offset, slope, bend) hypotheses whose
// slope axis maps linearly onto the line's virtualization-matrix entry —
// seeded from a handful of short coarse scans, or narrowed from the start
// by a warm prior (an earlier extraction's slopes and triple point). Every
// probe is chosen to maximise the expected reduction of the posterior
// variance of that matrix entry: candidate cells are σ-quantiles of the
// predicted crossing along a fan of scan lines, scored in closed form from
// the posterior's prefix sums. A probe's bright/dark label then multiplies
// in a noise-tempered likelihood, so no single noisy sample can kill the
// true hypothesis.
//
// The stopping rule is statistical, not positional: extraction ends when
// each entry's 95% confidence interval is at most Config.TargetCI (default
// 0.030). Windows whose pixel lattice cannot support the target — a short
// lever arm bounds the achievable CI from below — are detected by the
// expected-gain test: when no candidate offers gain, the line is at its
// information floor, and the extraction still succeeds if both floors sit
// within 2× the target, else it reports ErrNoConverge. That error is a
// deterministic pipeline outcome, so the chain planner's infogain-first
// ladder (chainx.InfoGainLadder: infogain → fast → adaptive → rays)
// escalates such pairs to the raster method instead of failing the chain.
//
// The scheduler probes only through the instrument contract and makes every
// decision deterministically, so infogain jobs (service kind "infogain")
// record and replay bit-for-bit like every other pipeline, are cacheable
// under the canonical request hash, and chain extractions stay bit-identical
// at any worker count. The fleet mounts it through FleetPolicy.InfoGain:
// scheduled recalibrations re-locate a drifted pair's lines warm-started
// from its last known geometry for a fraction of a re-raster. On the
// default double-dot window the scheduler needs ~70 probes to beat the fast
// method's accuracy (~1030–1100 probes) — a ~15× probe cut
// (BenchmarkInfoGainVsFast's probe-cut in BENCH.txt); the posterior update and candidate scoring are
// allocation-free on the hot path.
//
// # Persistence & replay
//
// With ServiceConfig.DataDir set (vgxd -data-dir) the service is durable.
// Every fresh cacheable result and every fleet calibration event is
// appended to a CRC-framed journal (internal/store: journal.log, plus a
// periodically compacted journal.snap written atomically via rename; the
// on-disk format version is store.FormatVersion). A restarted service
// warm-starts its result cache from the journal — previously served
// requests are cache hits again — and the fleet manager restores every
// device's staleness score, cooldown timestamps, hysteresis evidence,
// budget window and history, so a daemon bounce never forces the fleet
// back through full re-extraction. Recovery is crash-safe: a torn trailing
// frame (the signature of dying mid-append) is truncated, never fatal.
//
// Every extraction — a job, or one pair of a chain job — probes through
// one probe stack: the instrument, a trace recorder over it with
// RecordTraces (vgxd -record-traces), and the device's twin over that for
// a twin-first spec. The recorder's probe trace (internal/trace) holds each
// (voltages, time, current) sample that reached the instrument,
// content-addressed under DataDir/traces. Command vgxreplay re-executes
// recordings offline — traces through the one trace replay, ReplayTrace,
// against the recorded samples with zero live-instrument probes, journal
// entries (ReplayJournal) against fresh simulated instruments — and diffs
// the reproduced virtual-gate matrices bit-for-bit against the recorded
// ones. Recorded device responses thereby become regression tests: any
// divergence is an extraction-code change or a corrupted recording.
//
// # Observability
//
// Package internal/telemetry is the dependency-free observability core: a
// metrics registry (counters, gauges, fixed-bucket histograms — all
// vgx_*-prefixed, registration-linted, updated with single atomic
// operations and zero allocations) rendered in Prometheus text format at
// vgxd's GET /metrics, and a span tracer recording one
// job→pipeline→pair→probes timing tree per executed job. Every span
// carries wall-clock time next to virtual simulated-instrument time —
// the gap between the two is the paper's argument, so both are
// first-class. Durable services journal the trees by request hash;
// `vgxreplay -spans` dumps them, GET /v1/spans serves them live, and
// LoadSpans reads them from the library. Exposition is deterministic
// (families by name, series by key-sorted label signature): a fixed job
// set leaves byte-identical /metrics text at any worker count.
//
// ServiceConfig.MaxQueueDepth (vgxd -max-queue-depth) sheds submissions
// with ErrServiceOverloaded — HTTP 429 plus Retry-After — once that many
// jobs are queued, while cache hits are still served. The daemons log
// structured lines (log/slog, -log-format text|json) carrying each
// request's X-Request-ID, which is echoed on responses and recorded as
// the req_id attribute of the job's span tree. vgxd -pprof mounts
// net/http/pprof on the service listener.
//
// # Alerting & history
//
// Exposition answers "what is the value now"; operating a daemon needs
// "what has it been doing". Every service scrapes its own registry into
// an in-process time-series store (internal/tsdb: fixed-size
// delta-encoded rings, bounded memory forever, ~2 µs per planned scrape)
// and evaluates a declarative SLO rule catalogue (internal/alert) over
// it on every scrape — a threshold plus for-duration state machine
// whose firing/resolved transitions are journaled on durable services,
// restored on restart, and readable offline (LoadAlertHistory,
// vgxreplay -alerts). The stock catalogue (DefaultAlertRules — load
// shedding, fleet staleness, persist errors, surrogate escalation
// ratio, pool saturation) is replaced via ServiceConfig.AlertRules.
// Instant and range queries (last/avg/min/max/sum, windowed rate,
// histogram quantile) are served at GET /v1/query, the
// alert board at GET /v1/alerts, and GET /debug/bundle snapshots a
// flight-recorder tar.gz (metrics, tsdb windows, alerts, stats, fleet
// state, build info, span trees) for bug reports. Command vgxtop is the
// terminal dashboard over the same endpoints.
//
// Scraping runs on the daemon's wall clock (ServiceConfig.ScrapeInterval,
// vgxd -scrape-interval) or on a caller-owned clock via
// Service.ScrapeNow(atS) — the fleet's virtual-time tests evaluate
// alerts that way, so alert sequences are deterministic at any worker
// count, like every other subsystem here.
//
// # Sharded serving
//
// One service is one worker pool, one cache, one fleet slice, one
// journal. NewCluster (internal/shard; vgxd -shards N) runs N complete
// shard services behind a stateless consistent-hash front door:
// placement is a pure function of (key, shard count) on a 256-vnode
// ring, with sim and chain jobs routed by canonical spec hash — the
// same identity the cache and twin registry key on, so a device's
// cache entries, twins and journal ranges co-locate — fleet devices by
// device ID, and sessions and job handles by the s<i>- prefix their
// shard minted. The router scatter-gathers batches by ring owner and
// merges in request order (results are byte-identical at any shard
// count; a batch that lands on one shard runs inline), leaves concurrent
// identical submissions to the owning shard's
// result cache to coalesce, answers a saturated shard's overload with
// the same 429 + Retry-After the shard would (IsOverloaded holds through
// Cluster.Run and Submit), and merges observability: /metrics and
// /v1/query label every series with its shard, /v1/healthz rolls up with
// down shards listed, and vgxtop folds the labels back into one fleet
// view.
//
// Both front doors serve one route table: ServiceHandler and
// ClusterHandler pass a Service or a Cluster to the same handler, so a
// route answers the same status codes on either. vgxd -shards 1 serves a
// plain Service. A Cluster, even of one shard, answers in the sharded
// dialect; its replies differ from a service's only in the tick reply's
// per-shard "shards" list, s<i>/ alert rule names, shard labels on
// /v1/query series and /metrics samples, the /v1/healthz rollup and the
// per-shard /v1/stats breakdown, explicit device IDs for fleet
// registration, and s<i>- prefixed job and session IDs.
//
// Durable clusters (ClusterConfig.DataDir) journal per shard under
// shard-<i>/ and record the shard count in cluster.json; OpenCluster
// at a different count (or RebalanceShards offline) reshapes by
// shipping exactly the journal records whose ring owner changed —
// about 1/N of the data on a join, reported key-by-key in the
// ClusterRebalanceReport — after which every previously served request
// is a cache hit again and every device answers from its new home
// shard with history intact. A shard dying takes out only its arc:
// survivors keep serving while the victim's keys return 503, and a
// restart warm-starts cache, fleet and alert state from the shard's
// own journal.
//
// # Performance
//
// The probe hot path — one simulated getCurrent — is allocation-free in
// steady state: ground states come from a precomputed energy table, the
// sensor response from a fixed-arity fast path, and memoisation from flat
// per-row buffers. Each fast path performs the generic path's
// floating-point operations in the same order, so probing is bit-identical
// to the pre-optimisation code; property tests enforce that parity.
//
// Instruments also implement BatchInstrument: CurrentRow serves a whole
// scan row per call and ProbeMany an arbitrary probe list, each
// byte-identical to the equivalent GetCurrent sequence. A full window is
// acquired one CurrentRow per row on the calling goroutine, in probe
// order; one job never fans out, and the service's worker pool keeps the
// CPUs busy across jobs. Full-CSD consumers (the baseline method,
// benchmark generation, service jobs) route through these automatically;
// SimInstrument.AcquireCSD acquires the sim's window directly.
//
// scripts/bench.sh runs every Benchmark* in the module five times and
// writes the output, in Go's standard benchmark format, to BENCH.txt.
// Among them, BenchmarkProbeScalar and BenchmarkProbeBatch must report 0
// allocs/op, BenchmarkGridRender* track full-window renders,
// BenchmarkProbeCounted must stay within 2% of BenchmarkProbeBare, and
// BenchmarkShardThroughput measures front-door scaling across shard
// counts. See README.md's Performance section for the medians.
//
// See examples/ for runnable programs: a quick start, quadruple-dot chain
// virtualization, a noise-robustness study, a dwell-budget comparison and
// the serving demo.
package fastvg
