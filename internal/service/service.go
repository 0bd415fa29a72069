package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/fastvg/fastvg/internal/alert"
	"github.com/fastvg/fastvg/internal/autotune"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/evalx"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/imaging"
	"github.com/fastvg/fastvg/internal/infogain"
	"github.com/fastvg/fastvg/internal/method"
	"github.com/fastvg/fastvg/internal/qflow"
	"github.com/fastvg/fastvg/internal/rays"
	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/trace"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// Config tunes a Service; the zero value is production-reasonable.
type Config struct {
	Workers   int // extraction worker-pool slots; default one per CPU
	CacheSize int // result-cache capacity in entries; default 1024

	// Fleet tunes the fleet calibration manager (staleness thresholds,
	// probe budget, check cadence); the zero value uses fleet defaults.
	Fleet fleet.Policy

	// DataDir, when set, makes the service durable: cacheable results and
	// fleet calibration state are journaled to an internal/store journal
	// under this directory, and a restarted service warm-starts its result
	// cache and restores its fleet from it.
	DataDir string
	// RecordTraces, with DataDir set, writes a content-addressed probe
	// trace of every executed extraction under DataDir/traces; cmd/vgxreplay
	// re-executes them offline. Recording routes probing through the scalar
	// path (bit-identical to the batch paths by contract, but without their
	// parallel speed).
	RecordTraces bool

	// MaxQueueDepth sheds load: when more than this many submissions are
	// waiting for a worker slot, new extractions fail fast with
	// ErrOverloaded (HTTP 429) instead of queueing. Cache hits and
	// coalesced joins are still served. 0 means never shed.
	MaxQueueDepth int

	// ScrapeInterval is the cadence of the background loop sampling the
	// metric registry into the in-process tsdb (and evaluating alerts);
	// 0 uses the 10s default, negative disables the loop entirely —
	// scrapes then happen only on fleet ticks and explicit ScrapeNow
	// calls, which is how the determinism tests drive the tsdb on the
	// virtual clock.
	ScrapeInterval time.Duration
	// TSDBPoints is the per-series ring capacity of the tsdb; 0 uses the
	// tsdb default (512 points, ~12 bytes each).
	TSDBPoints int
	// AlertRules replaces the default alert catalogue
	// (alert.DefaultRules); nil keeps the default, an empty non-nil
	// slice runs no rules.
	AlertRules []alert.Rule
	// DisableAlerts turns off rule evaluation entirely; the tsdb keeps
	// scraping.
	DisableAlerts bool

	// InstanceID, when set, prefixes every minted job and session ID
	// ("s3-job-000001", "s3-sess-0001"). The shard router leans on this:
	// IDs carry the shard that minted them, so routing a job poll or a
	// session request needs no shared table — just the prefix.
	InstanceID string
}

// jobHistoryCap bounds the finished async job records a service retains.
const jobHistoryCap = 4096

// ErrOverloaded rejects new extractions when the worker-pool queue is at
// Config.MaxQueueDepth; the API layer maps it to 429 with a Retry-After.
var ErrOverloaded = errors.New("service: overloaded, queue depth limit reached")

// Service is the extraction server core: it schedules jobs on a bounded
// worker pool, deduplicates identical work through the result cache, and
// owns instruments through the registry.
type Service struct {
	pool       *sched.Pool
	cache      *resultCache
	reg        *Registry
	fleet      *fleet.Manager
	store      *store.Store // nil when not durable
	traceDir   string       // empty when not recording traces
	started    time.Time
	jobHistory int    // finished job records retained (jobHistoryCap)
	instanceID string // Config.InstanceID: minted-ID prefix, "" outside a shard

	// metrics is the registered metric surface (see metrics.go); always
	// present.
	metrics  *serviceMetrics
	maxQueue int // shed threshold; 0 = never

	// obs is the self-watching layer: tsdb + alert engine + scrape loop
	// (see obs.go); always present after New.
	obs *observability

	// twins is the surrogate twin registry (see surrogate.go); twinMu guards
	// the map only — each twin has its own job-duration mutex.
	twinMu sync.Mutex
	twins  map[string]*twin

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for listing
	nextID int
}

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// job is the service's internal record of an async submission.
type job struct {
	id       string
	req      Request
	hash     string
	cancel   context.CancelFunc
	finished chan struct{} // closed after the final status is recorded

	mu     sync.Mutex
	status JobStatus
	result *Result
	errMsg string
}

// terminal reports whether the job reached a final state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled
}

// JobView is a serialisable job snapshot.
type JobView struct {
	ID     string    `json:"id"`
	Hash   string    `json:"hash"`
	Status JobStatus `json:"status"`
	Kind   Kind      `json:"kind"`
	Error  string    `json:"error,omitempty"`
	Result *Result   `json:"result,omitempty"`
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:     j.id,
		Hash:   j.hash,
		Status: j.status,
		Kind:   j.req.Kind,
		Error:  j.errMsg,
		Result: j.result,
	}
}

// Stats aggregates the service's accounting.
type Stats struct {
	Cache     CacheStats     `json:"cache"`
	Scheduler sched.Stats    `json:"scheduler"`
	Jobs      map[string]int `json:"jobs"`     // job count per status
	Sessions  int            `json:"sessions"` // open sessions
	// Surrogate aggregates the twin registry (models, serving counters).
	Surrogate SurrogateStats `json:"surrogate"`
	// MethodProbes reports executed probes per extraction method
	// (fast/adaptive/rays/infogain/...) across scalar and chain jobs.
	MethodProbes map[string]int64 `json:"methodProbes,omitempty"`
	// Store reports the journal accounting when the service is durable.
	Store *store.Stats `json:"store,omitempty"`
	// PersistErrs counts journal/trace writes that failed; results were
	// still served (durability is best-effort per entry, never blocking).
	PersistErrs int64 `json:"persistErrs,omitempty"`
}

// New builds a Service. The registry loads the benchmark suite definitions;
// no CSDs are generated until jobs need them. With Config.DataDir set the
// journal is opened (recovering a torn tail if the last process died
// mid-append), the result cache is warm-started from the persisted entries,
// and the fleet manager restores its per-device calibration state.
func New(cfg Config) (*Service, error) {
	reg, err := NewRegistry()
	if err != nil {
		return nil, err
	}
	m := newServiceMetrics(telemetry.NewRegistry())
	pool := sched.New(cfg.Workers)
	pool.SetMetrics(m.sched)
	s := &Service{
		pool:       pool,
		cache:      newResultCache(cfg.CacheSize, m),
		reg:        reg,
		fleet:      fleet.New(pool, cfg.Fleet),
		started:    time.Now(),
		jobHistory: jobHistoryCap,
		instanceID: cfg.InstanceID,
		metrics:    m,
		maxQueue:   cfg.MaxQueueDepth,
		jobs:       make(map[string]*job),
		twins:      make(map[string]*twin),
	}
	reg.setIDPrefix(cfg.InstanceID)
	m.attachReaders(pool, s.cache)
	s.fleet.AttachTelemetry(m.fleetTelemetry())
	if cfg.DataDir != "" {
		st, err := store.Open(cfg.DataDir, store.Options{})
		if err != nil {
			return nil, err
		}
		st.SetMetrics(m.store)
		// Warm-start the cache oldest-first so the LRU order matches the
		// journal's write order; entries past the cache capacity evict in
		// that same order. Unreadable entries (a future format, a partial
		// hand edit) are skipped, not fatal.
		for _, rec := range st.Records(store.KindCacheEntry) {
			var cr cacheRecord
			if json.Unmarshal(rec.Data, &cr) != nil || cr.Result == nil {
				continue
			}
			s.cache.seed(rec.Key, cr.Result)
		}
		s.restoreTwins(st)
		if err := s.fleet.AttachStore(st); err != nil {
			st.Close()
			return nil, err
		}
		s.store = st
		if cfg.RecordTraces {
			s.traceDir = filepath.Join(cfg.DataDir, "traces")
		}
	} else if cfg.RecordTraces {
		return nil, errors.New("service: RecordTraces requires DataDir")
	}
	if err := s.initObs(cfg); err != nil {
		if s.store != nil {
			s.store.Close()
		}
		return nil, err
	}
	return s, nil
}

// Registry exposes the instrument registry (sessions, benchmarks).
func (s *Service) Registry() *Registry { return s.reg }

// Telemetry exposes the metric registry backing GET /metrics, so
// embedders can register their own families alongside the service's.
func (s *Service) Telemetry() *telemetry.Registry { return s.metrics.reg }

// Fleet exposes the fleet calibration manager. Fleet measurement work runs
// on the same worker pool as interactive extraction jobs, so a monitoring
// tick and a batch of API jobs share the service's bounded slots.
func (s *Service) Fleet() *fleet.Manager { return s.fleet }

// Close drains the service for shutdown: the worker pool stops accepting
// jobs and Close waits (bounded by ctx) for running extractions to finish,
// then the session registry is emptied and the journal (if any) is flushed
// to stable storage and closed. Queued jobs settle as cancelled. The
// journal is closed even when the drain times out — everything appended so
// far must reach stable storage regardless (a straggler extraction that
// finishes after the store closed just counts a persist error).
func (s *Service) Close(ctx context.Context) error {
	s.stopObs()
	errDrain := s.pool.Close(ctx)
	s.reg.CloseAll()
	if s.store != nil {
		return errors.Join(errDrain, s.store.Close())
	}
	return errDrain
}

// Health is the liveness snapshot served at /v1/healthz.
type Health struct {
	OK       bool    `json:"ok"`
	Draining bool    `json:"draining"` // Close has begun: no new work is accepted
	UptimeS  float64 `json:"uptimeS"`
	Workers  int     `json:"workers"`
	Running  int     `json:"running"`
	Sessions int     `json:"sessions"`
	Fleet    int     `json:"fleet"` // registered fleet devices
}

// Health reports liveness and drain state.
func (s *Service) Health() Health {
	ps := s.pool.Stats()
	return Health{
		OK:       !s.pool.Closed(),
		Draining: s.pool.Closed(),
		UptimeS:  time.Since(s.started).Seconds(),
		Workers:  ps.Workers,
		Running:  ps.Running,
		Sessions: s.reg.SessionCount(),
		Fleet:    s.fleet.DeviceCount(),
	}
}

// Stats returns a snapshot of cache, scheduler and job accounting.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	counts := make(map[string]int)
	for _, j := range s.jobs {
		counts[string(j.view().Status)]++
	}
	s.mu.Unlock()
	st := Stats{
		Cache:        s.cache.Stats(),
		Scheduler:    s.pool.Stats(),
		Jobs:         counts,
		Sessions:     s.reg.SessionCount(),
		Surrogate:    s.surrogateStats(),
		MethodProbes: s.metrics.methodProbes.Snapshot(),
		PersistErrs:  s.metrics.persistErrs.Value(),
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	return st
}

// Run executes one request synchronously through the cache and worker pool
// and returns its result. Identical concurrent Runs coalesce onto one
// extraction.
func (s *Service) Run(ctx context.Context, req Request) (*Result, error) {
	res, _, err := s.run(ctx, req)
	return res, err
}

// run is Run, also returning the cache entry that served a hit (nil for
// anything else).
func (s *Service) run(ctx context.Context, req Request) (*Result, *cacheEntry, error) {
	nreq, hash, err := req.canonicalForm()
	if err != nil {
		return nil, nil, err
	}
	return s.execute(ctx, nreq, hash, nil)
}

// execute runs a normalized request: through the cache for cacheable
// targets, directly otherwise; the actual extraction always runs inside a
// worker-pool slot. Worker slots are held only while an extraction runs —
// cache-hit and coalesced callers never occupy one, so waiting on another
// caller's flight can never starve the flight of the slot it needs.
// onStart, if non-nil, fires when the extraction itself begins (it does not
// fire for cache hits or coalesced joins). hit is the cache entry that
// served a hit, nil otherwise.
func (s *Service) execute(ctx context.Context, nreq Request, hash string, onStart func()) (res *Result, hit *cacheEntry, err error) {
	runPooled := func() (*Result, error) {
		if err := s.admit(); err != nil {
			return nil, err
		}
		v, err := s.pool.Submit(ctx, func(jctx context.Context) (any, error) {
			if onStart != nil {
				onStart()
			}
			return s.runJob(jctx, nreq, hash)
		}).Wait()
		if err != nil {
			return nil, err
		}
		return v.(*Result), nil
	}
	if nreq.Kind == KindChain {
		// Chain jobs are the planner's coordinator, not a unit of extraction:
		// the planner submits the N−1 pair extractions to the worker pool
		// itself. Holding a slot while waiting on those slots could deadlock
		// a one-worker pool, so the coordinator runs slotless — only its
		// pairs occupy workers.
		runPooled = func() (*Result, error) {
			if s.pool.Closed() {
				return nil, sched.ErrClosed
			}
			if err := s.admit(); err != nil {
				return nil, err
			}
			if onStart != nil {
				onStart()
			}
			return s.runJob(ctx, nreq, hash)
		}
	}
	if !nreq.Cacheable() {
		res, err = runPooled()
		return res, nil, err
	}
	res, hit, served, err := s.cache.Do(ctx, hash, runPooled)
	if err != nil {
		return nil, nil, err
	}
	if !served && s.store != nil {
		// This caller ran the extraction (coalesced waiters see served):
		// journal the fresh entry so a restarted service serves it from
		// cache. Persistence failures never fail the request — the result
		// is correct either way — but they are counted and surfaced.
		s.persistResult(nreq, hash, res)
	}
	if served {
		// Stamp the retrieval-specific flag on a copy; the cached value is
		// shared across callers and must stay immutable.
		c := *res
		c.Cached = true
		return &c, hit, nil
	}
	return res, nil, nil
}

// Submit schedules a request asynchronously and returns a job view
// immediately; poll Job or block on Wait for the outcome.
func (s *Service) Submit(ctx context.Context, req Request) (JobView, error) {
	nreq, hash, err := req.canonicalForm()
	if err != nil {
		return JobView{}, err
	}
	// Shed at submission so the caller sees the 429, but only when the
	// request would actually occupy a queue slot — a cached result is
	// served regardless of load.
	if _, cached := s.cache.Get(hash); !cached || !nreq.Cacheable() {
		if err := s.admit(); err != nil {
			return JobView{}, err
		}
	}
	jctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	j := &job{req: nreq, hash: hash, status: StatusQueued, cancel: cancel,
		finished: make(chan struct{})}
	s.mu.Lock()
	s.nextID++
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	if s.instanceID != "" {
		j.id = s.instanceID + "-" + j.id
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	// Snapshot before the goroutine races ahead: callers always see the job
	// as submitted, even if a tiny extraction finishes immediately.
	view := j.view()
	go func() {
		res, _, err := s.execute(jctx, nreq, hash, func() {
			j.mu.Lock()
			j.status = StatusRunning
			j.mu.Unlock()
		})
		j.mu.Lock()
		switch {
		case errors.Is(err, context.Canceled):
			j.status = StatusCancelled
			j.errMsg = err.Error()
		case err != nil:
			j.status = StatusFailed
			j.errMsg = err.Error()
		default:
			j.status = StatusDone
			j.result = res
		}
		j.mu.Unlock()
		close(j.finished)
		s.pruneJobs()
	}()
	return view, nil
}

// pruneJobs drops the oldest finished job records once the history exceeds
// its cap, so a long-running daemon's job table stays bounded (the result
// cache keeps serving pruned jobs' outcomes by hash). Unfinished jobs are
// never pruned.
func (s *Service) pruneJobs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	excess := len(s.order) - s.jobHistory
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job returns a snapshot of an async job.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs lists all jobs in submission order.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	order := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.view())
	}
	return out
}

// Wait blocks until job id settles or ctx is done.
func (s *Service) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.finished:
		return j.view(), nil
	case <-ctx.Done():
		return JobView{}, context.Cause(ctx)
	}
}

// Cancel aborts a queued job; a job already extracting finishes (the result
// still lands in the cache for future requests). Reports whether the job
// exists.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// BatchItem is one outcome of a Batch call; exactly one of Result and Error
// is set.
type BatchItem struct {
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`

	// hit is the cache entry that served Result, for the batch route's
	// stored-encoding reply; nil unless the item was a cache hit.
	hit *cacheEntry
}

// Batch executes requests concurrently on the worker pool and returns
// outcomes in request order — deterministic regardless of scheduling.
// Identical requests within (or across) batches are served once and
// deduplicated through the cache. A one-request batch runs on the
// caller's goroutine.
func (s *Service) Batch(ctx context.Context, reqs []Request) []BatchItem {
	out := make([]BatchItem, len(reqs))
	if len(reqs) == 1 {
		out[0] = s.batchItem(ctx, reqs[0])
		return out
	}
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			out[i] = s.batchItem(ctx, req)
		}(i, req)
	}
	wg.Wait()
	return out
}

// batchItem runs one batch request.
func (s *Service) batchItem(ctx context.Context, req Request) BatchItem {
	res, hit, err := s.run(ctx, req)
	if err != nil {
		return BatchItem{Error: err.Error()}
	}
	return BatchItem{Result: res, hit: hit}
}

// Table1Requests builds the paper's full evaluation as a batch: every suite
// benchmark under both the fast method and the Hough baseline, fast first,
// in benchmark order.
func Table1Requests() []Request {
	reqs := make([]Request, 0, 2*SuiteSize)
	for idx := 1; idx <= SuiteSize; idx++ {
		reqs = append(reqs,
			Request{Kind: KindFast, Benchmark: idx},
			Request{Kind: KindBaseline, Benchmark: idx},
		)
	}
	return reqs
}

// admit applies the load-shedding gate: callers about to occupy or queue
// for worker slots fail fast with ErrOverloaded once the queue is at the
// configured depth. Cache hits and coalesced joins never reach this —
// served results stay served under overload.
func (s *Service) admit() error {
	if s.maxQueue > 0 && s.pool.Queued() >= s.maxQueue {
		s.metrics.shed.Inc()
		return ErrOverloaded
	}
	return nil
}

// runJob wraps one job execution in the telemetry envelope: the in-flight
// gauge, per-kind counters, latency histogram and live-metric context
// always; the span tree when the service is durable. Spans are journaled
// under the request hash as soon as the job settles.
func (s *Service) runJob(ctx context.Context, nreq Request, hash string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := s.metrics
	m.inflight.Add(1)
	start := time.Now()
	ctx = withLiveMetrics(ctx, m)
	var sp *telemetry.Span
	if s.spansOn() {
		attrs := []telemetry.Attr{{K: "kind", V: string(nreq.Kind)}, {K: "hash", V: shortHash(hash)}}
		if id := RequestIDFrom(ctx); id != "" {
			attrs = append(attrs, telemetry.Attr{K: "req_id", V: id})
		}
		sp = telemetry.StartSpan("job", attrs...)
		ctx = telemetry.ContextWithSpan(ctx, sp)
	}
	res, err := s.runJobKind(ctx, nreq, hash)
	m.inflight.Add(-1)
	m.jobs.With(string(nreq.Kind)).Inc()
	if err != nil {
		m.jobErrors.Inc()
	}
	m.jobSeconds.With(string(nreq.Kind)).Observe(time.Since(start).Seconds())
	if sp != nil {
		sp.End()
		if err != nil {
			sp.AddAttr(telemetry.Attr{K: "error", V: err.Error()})
		} else {
			sp.SetVirtual(secondsToNS(res.ExperimentS))
			sp.AddAttr(telemetry.AttrInt("probes", int64(res.Probes)))
		}
		s.journalSpan(hash, sp)
	}
	return res, err
}

// runJobKind executes one normalized request against its instrument. It is
// the only place extraction pipelines are invoked.
func (s *Service) runJobKind(ctx context.Context, nreq Request, hash string) (*Result, error) {
	res := &Result{
		Kind:      nreq.Kind,
		Benchmark: nreq.Benchmark,
		Session:   nreq.Session,
		Hash:      hash,
	}
	switch {
	case nreq.ChainSim != nil:
		if err := s.runChain(ctx, nreq, hash, res); err != nil {
			return nil, err
		}
	case nreq.Benchmark != 0:
		inst, b, err := s.reg.Benchmark(nreq.Benchmark)
		if err != nil {
			return nil, err
		}
		if err := s.runInstrumented(ctx, nreq, hash, inst, b.Window, &b.Truth, res); err != nil {
			return nil, err
		}
	case nreq.Sim != nil:
		// Build from a copy: a prepared request is shared read-only.
		spec := *nreq.Sim
		inst, win, err := spec.Build()
		if err != nil {
			return nil, err
		}
		truth := qflow.Truth{SteepSlope: nreq.Sim.SteepSlope, ShallowSlope: nreq.Sim.ShallowSlope}
		if err := s.runInstrumented(ctx, nreq, hash, inst, win, &truth, res); err != nil {
			return nil, err
		}
	default:
		sess, ok := s.reg.Session(nreq.Session)
		if !ok {
			return nil, fmt.Errorf("service: unknown session %q", nreq.Session)
		}
		truth := qflow.Truth{SteepSlope: sess.spec.SteepSlope, ShallowSlope: sess.spec.ShallowSlope}
		err := sess.withInstrument(func(inst *device.SimInstrument, win csd.Window) error {
			return s.runInstrumented(ctx, nreq, hash, inst, win, &truth, res)
		})
		if err != nil {
			return nil, err
		}
	}
	s.countMethodProbes(res)
	return res, nil
}

// countMethodProbes folds one executed result into the per-method probe
// accounting (vgx_service_probes_total{method}): chain jobs attribute each
// escalation attempt to its method, scalar jobs their whole probe count to
// the kind's method. Cache hits count nothing — the family reflects real
// instrument work.
func (s *Service) countMethodProbes(res *Result) {
	vec := s.metrics.methodProbes
	if res.Chain != nil {
		for i := range res.Chain.Pairs {
			for _, att := range res.Chain.Pairs[i].Attempts {
				vec.With(string(att.Method)).Add(int64(att.Probes))
			}
		}
		return
	}
	vec.With(string(kindMethod(res.Kind))).Add(int64(res.Probes))
}

// probeStack is what one extraction probes, built bottom up: the
// instrument, a trace recorder over it when the service records traces, and
// the device's twin over that when the request is twin-first. The twin sits
// outside the recorder, so a trace holds exactly the probes that reached the
// instrument. Every job and every chain pair probes through one.
type probeStack struct {
	top  device.Metered       // what the pipeline probes
	rec  *trace.Recorder      // nil unless recording traces
	tw   *twin                // held by the job until it settles; nil unless twin-first
	hyb  *surrogate.Hybrid    // tw's model over rec, or over the instrument
	snap *trace.SurrogateMeta // tw before the first probe, when recording
}

// newProbeStack stacks a recorder over inst when the service records
// traces, then, when tw is non-nil, tw's model with sur's knobs. The
// recorder hides the batch probing paths, so a recorded pipeline probes
// point by point — bit-identical to the batch paths by the internal/device
// contract. The caller holds tw.mu until the stack settles.
func (s *Service) newProbeStack(inst device.Metered, sur *device.SurrogateSpec, tw *twin) *probeStack {
	st := &probeStack{top: inst, tw: tw}
	if s.traceDir != "" {
		st.rec = trace.NewRecorder(inst)
		st.top = st.rec
	}
	if tw != nil {
		if st.rec != nil {
			// Snapshot before any probe: replay rebuilds this exact model.
			st.snap = &trace.SurrogateMeta{Model: tw.model.Encode(), Threshold: sur.Threshold, Learn: !sur.NoLearn}
		}
		st.hyb = &surrogate.Hybrid{Model: tw.model, Inner: st.top, Threshold: sur.Threshold, Learn: !sur.NoLearn, Metrics: s.metrics.sur}
		st.top = st.hyb
	}
	return st
}

// runInstrumented executes the request's pipeline through inst's probe
// stack — a twin-first sim request holds its device's twin for the run —
// then settles the twin and writes the trace.
func (s *Service) runInstrumented(ctx context.Context, nreq Request, hash string, inst device.Metered, win csd.Window, truth *qflow.Truth, res *Result) error {
	var sur *device.SurrogateSpec
	var tw *twin
	if nreq.Sim != nil && twinFirst(nreq.Sim.Surrogate) {
		key, err := specTwinKey(*nreq.Sim)
		if err != nil {
			return err
		}
		sur, tw = nreq.Sim.Surrogate, s.acquireTwin(key, win)
		defer tw.mu.Unlock()
	}
	st := s.newProbeStack(inst, sur, tw)
	if err := runPipelines(ctx, nreq, st.top, win, truth, res); err != nil {
		return err
	}
	res.Surrogate = s.settleTwin(st)
	if err := s.writeTrace(st, nreq, hash, win, truth, nil, res); err != nil {
		s.metrics.persistErrs.Inc()
	}
	return nil
}

// runPipelines runs the request kind's pipeline on inst and fills res:
// windowfind searches for a window, every other kind runs its extraction
// method through the internal/method table, and a verify job then checks
// the fast method's matrix on the device. truth, when non-nil, enables
// ground-truth scoring. ctx reaches the cancellable stages (today the verify
// scan loop), so cancelling a job interrupts a long knee sweep between
// probes. It is a free function — no service state — so trace replay
// (ReplayTrace) re-executes recorded requests through exactly the code path
// that produced them.
func runPipelines(ctx context.Context, nreq Request, inst device.Metered, win csd.Window, truth *qflow.Truth, res *Result) error {
	before := inst.Stats()
	// Live jobs carry a span and the service metric set on ctx; replay
	// carries neither, so a replayed extraction records and counts nothing.
	var psp *telemetry.Span
	if parent := telemetry.SpanFromContext(ctx); parent != nil {
		psp = parent.Child("pipeline", telemetry.Attr{K: "method", V: string(nreq.Kind)})
	}
	t0 := time.Now()
	var err error
	var fit *method.Fit
	if nreq.Kind == KindWindowFind {
		wf := nreq.WindowFind
		var ar *autotune.Result
		ar, err = autotune.FindWindow(inst, wf.V1Min, wf.V1Max, wf.V2Min, wf.V2Max, wf.Pixels, autotune.Config{})
		if err == nil {
			w := ar.Window
			res.Window = &w
		}
	} else {
		name := kindMethod(nreq.Kind)
		if !method.Valid(name) {
			return fmt.Errorf("%w %q", ErrBadKind, nreq.Kind)
		}
		fit, err = method.Run(ctx, name, inst, win, methodOptions(ctx, nreq))
		if err == nil {
			res.TripleV1, res.TripleV2 = fit.TripleV1, fit.TripleV2
			if nreq.Kind == KindVerify {
				var vr *virtualgate.VerifyResult
				vr, err = virtualgate.Verify(ctx, inst, win, fit.Matrix, fit.TripleV1, fit.TripleV2,
					virtualgate.VerifyConfig{MaxShiftFrac: nreq.Verify.MaxShiftFrac})
				if err == nil {
					res.Verify = &VerifyReport{OK: vr.OK, SteepShift: vr.SteepShift, ShallowShift: vr.ShallowShift}
				}
			}
		}
	}
	res.ComputeS = time.Since(t0).Seconds()
	after := inst.Stats()
	res.Probes = after.UniqueProbes - before.UniqueProbes
	res.ExperimentS = (after.Virtual - before.Virtual).Seconds()
	if total := win.Cols * win.Rows; total > 0 {
		res.ProbePct = 100 * float64(res.Probes) / float64(total)
	}
	if psp != nil {
		// Even a failed pipeline spent its probes; record the span either way.
		psp.End()
		psp.SetVirtual(secondsToNS(res.ExperimentS))
		pb := psp.Child("probes", telemetry.AttrInt("count", int64(res.Probes)))
		pb.SetVirtual(secondsToNS(res.ExperimentS))
	}
	if err != nil {
		// Cancellation is a property of this caller, not of the request:
		// propagate it as a transport error so a half-finished extraction is
		// never cached as the request's deterministic outcome.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		// A pipeline failure is a deterministic outcome of the request, not
		// a service fault: record it on the result (with the probes it cost)
		// so repeats are served from cache instead of re-failing slowly.
		res.Error = err.Error()
		return nil
	}
	if fit != nil {
		res.SteepSlope, res.ShallowSlope = fit.SteepSlope, fit.ShallowSlope
		res.A12, res.A21 = fit.Matrix.A12(), fit.Matrix.A21()
		if truth != nil {
			res.Scored = true
			res.Success, res.SteepErrDeg, res.ShallowErrDeg =
				evalx.CheckSlopes(fit.SteepSlope, fit.ShallowSlope, *truth, evalx.DefaultAngleTolDeg)
		}
	}
	return nil
}

// kindMethod maps a job kind onto the extraction method it runs; a verify
// job extracts with the fast method.
func kindMethod(k Kind) method.Name {
	if k == KindVerify {
		return method.Fast
	}
	return method.Name(k)
}

// methodOptions maps the request's option blocks onto the method table's;
// a missing block runs that method's defaults. Live jobs count infogain
// decisions into the service metric set on ctx; replay carries none.
func methodOptions(ctx context.Context, nreq Request) *method.Options {
	o := &method.Options{}
	if f := nreq.Fast; f != nil {
		o.Fast = core.Config{DisableFilter: f.DisableFilter, RowSweepOnly: f.RowSweepOnly, NoShrink: f.NoShrink}
		o.Fast.Anchors.DiagonalPoints = f.DiagonalProbes
		o.Fast.Anchors.GaussSigmaFrac = f.GaussSigmaFrac
		o.Adaptive = core.AdaptiveConfig{Config: o.Fast, CoarseFactor: f.CoarseFactor}
	}
	if r := nreq.Rays; r != nil {
		o.Rays = rays.Config{NumRays: r.NumRays, DropSigma: r.DropSigma}
	}
	if ig := nreq.InfoGain; ig != nil {
		o.InfoGain = infogain.Config{TargetCI: ig.TargetCI, MaxProbes: ig.MaxProbes, NoiseEps: ig.NoiseEps, MinProbes: ig.MinProbes}
	}
	if m := liveMetricsFrom(ctx); m != nil {
		o.InfoGain.Metrics = m.ig
	}
	// RenderWorkers 0 = one per CPU: cold-cache baseline jobs acquire their
	// full CSD through the batched parallel render (grids are bit-identical
	// at any worker count, so cached results are unaffected).
	if b := nreq.Baseline; b != nil {
		o.Baseline.NoRefine = b.NoRefine
		if b.CannySigma != 0 || b.CannyHighRatio != 0 {
			o.Baseline.Canny = imaging.DefaultCannyConfig()
			if b.CannySigma != 0 {
				o.Baseline.Canny.Sigma = b.CannySigma
			}
			if b.CannyHighRatio != 0 {
				o.Baseline.Canny.HighRatio = b.CannyHighRatio
			}
		}
	}
	return o
}

// BenchmarkInfo is a serialisable suite entry for the listing endpoint.
type BenchmarkInfo struct {
	Index int         `json:"index"`
	Name  string      `json:"name"`
	Size  int         `json:"size"`
	Truth qflow.Truth `json:"truth"`
}

// BenchmarkList returns the suite in index order.
func (s *Service) BenchmarkList() []BenchmarkInfo {
	suite := s.reg.Suite()
	out := make([]BenchmarkInfo, 0, len(suite))
	for _, b := range suite {
		out = append(out, BenchmarkInfo{Index: b.Index, Name: b.Name, Size: b.Size, Truth: b.Truth})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
