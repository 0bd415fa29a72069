package service

import (
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/infogain"
	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/telemetry"
)

// serviceMetrics is the process metric surface: the service's own
// vgx_service_* families plus the metric sets of every subsystem it
// owns (scheduler, store, surrogate, infogain, fleet), all registered
// on one registry so GET /metrics is a single coherent scrape.
//
// The struct is always constructed and attached in full; /v1/stats reads
// its counters.
type serviceMetrics struct {
	reg *telemetry.Registry

	jobs       *telemetry.CounterVec   // vgx_service_jobs_total{kind}
	jobErrors  *telemetry.Counter      // vgx_service_job_errors_total
	jobSeconds *telemetry.HistogramVec // vgx_service_job_seconds{kind}
	inflight   *telemetry.Gauge        // vgx_service_inflight
	shed       *telemetry.Counter      // vgx_service_shed_total

	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	cacheEvictions *telemetry.Counter
	cacheCoalesced *telemetry.Counter // gauge-typed: joins un-count when abandoned

	persistErrs  *telemetry.Counter
	methodProbes *telemetry.CounterVec // vgx_service_probes_total{method}

	httpRequests *telemetry.CounterVec   // vgx_http_requests_total{route}
	httpSeconds  *telemetry.HistogramVec // vgx_http_request_seconds{route}

	sched *sched.Metrics
	store *store.Metrics
	sur   *surrogate.Metrics
	ig    *infogain.Metrics
	spans *telemetry.Counter // vgx_service_spans_total (journal failures count persistErrs)
}

// newServiceMetrics registers every family on reg and wires the static
// gauges. pool and cache readers are installed later (gaugeFuncs) once
// those exist.
func newServiceMetrics(reg *telemetry.Registry) *serviceMetrics {
	return &serviceMetrics{
		reg:        reg,
		jobs:       reg.CounterVec("vgx_service_jobs_total", "Jobs executed (cache misses and non-cacheable runs), by request kind.", "kind"),
		jobErrors:  reg.Counter("vgx_service_job_errors_total", "Jobs whose execution returned a transport error (bad request, cancelled, pool closed)."),
		jobSeconds: reg.HistogramVec("vgx_service_job_seconds", "Wall-clock job execution latency, by request kind.", telemetry.SecondsBuckets, "kind"),
		inflight:   reg.Gauge("vgx_service_inflight", "Jobs currently executing (excludes cache hits and coalesced waits)."),
		shed:       reg.Counter("vgx_service_shed_total", "Jobs rejected with ErrOverloaded because the queue-depth limit was reached."),

		cacheHits:      reg.Counter("vgx_service_cache_hits_total", "Result-cache lookups served from a completed entry."),
		cacheMisses:    reg.Counter("vgx_service_cache_misses_total", "Result-cache lookups that executed the extraction."),
		cacheEvictions: reg.Counter("vgx_service_cache_evictions_total", "Entries evicted from the result-cache LRU tail."),
		cacheCoalesced: reg.IntGauge("vgx_service_cache_coalesced", "Lookups served by attaching to an identical in-flight extraction (abandoned joins un-count)."),

		persistErrs:  reg.Counter("vgx_service_persist_errors_total", "Journal/trace/span writes that failed; results were still served."),
		methodProbes: reg.CounterVec("vgx_service_probes_total", "Executed instrument probes, by extraction method.", "method"),

		httpRequests: reg.CounterVec("vgx_http_requests_total", "HTTP requests served, by route pattern (closed set, never the raw path).", "route"),
		httpSeconds:  reg.HistogramVec("vgx_http_request_seconds", "HTTP request latency, by route pattern.", telemetry.SecondsBuckets, "route"),

		sched: sched.NewMetrics(reg),
		store: store.NewMetrics(reg),
		sur:   surrogate.NewMetrics(reg),
		ig:    infogain.NewMetrics(reg),
		spans: reg.Counter("vgx_service_spans_total", "Job span trees recorded."),
	}
}

// attachReaders installs the gauge functions that read live structures:
// cache occupancy and pool saturation. Called once from New after the
// pool and cache exist. Lock order is registry.mu → cache.mu only; the
// cache never touches the registry, so exposition cannot deadlock.
func (m *serviceMetrics) attachReaders(pool *sched.Pool, cache *resultCache) {
	m.reg.GaugeFunc("vgx_service_cache_entries", "Result-cache entries resident.", func() float64 {
		return float64(cache.Len())
	})
	m.reg.GaugeFunc("vgx_sched_saturation", "Pool load factor: (running + queued) / workers.", func() float64 {
		st := pool.Stats()
		if st.Workers == 0 {
			return 0
		}
		return float64(st.Running+pool.Queued()) / float64(st.Workers)
	})
}

// fleetTelemetry bundles the shared metric sets for fleet attachment,
// so fleet-driven surrogate serving and infogain recalibrations count
// into the same process-wide families as interactive jobs.
func (m *serviceMetrics) fleetTelemetry() fleet.Telemetry {
	return fleet.Telemetry{Reg: m.reg, Surrogate: m.sur, InfoGain: m.ig}
}
