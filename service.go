package fastvg

import (
	"context"
	"errors"
	"net/http"

	"github.com/fastvg/fastvg/internal/alert"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/trace"
	"github.com/fastvg/fastvg/internal/tsdb"
)

// This file is the façade over the extraction service subsystem
// (internal/service): a concurrent job scheduler, a deduplicating result
// cache and a session registry behind one Service value, served over HTTP by
// cmd/vgxd. Use it when extractions arrive as traffic — many scenarios, many
// repeats, many devices — rather than as single library calls.

// Service schedules extraction jobs on a bounded worker pool, deduplicates
// identical requests through a hash-keyed LRU result cache (concurrent
// identical submissions coalesce onto one extraction), and owns benchmark
// and simulated-device instruments through its registry.
type Service = service.Service

// ServiceConfig tunes NewService; the zero value uses one worker per CPU and
// a 1024-entry result cache.
type ServiceConfig = service.Config

// JobRequest describes one extraction job: a pipeline kind plus exactly one
// target (benchmark index, sim device spec, or open session ID).
type JobRequest = service.Request

// JobResult is the serialisable outcome of a job.
type JobResult = service.Result

// JobView is a snapshot of an asynchronously submitted job.
type JobView = service.JobView

// JobKind names an extraction pipeline.
type JobKind = service.Kind

// The schedulable pipeline kinds.
const (
	JobFast       = service.KindFast
	JobBaseline   = service.KindBaseline
	JobRays       = service.KindRays
	JobAdaptive   = service.KindAdaptive
	JobWindowFind = service.KindWindowFind
	JobVerify     = service.KindVerify
	JobChain      = service.KindChain
	JobInfoGain   = service.KindInfoGain
)

// ChainJobOptions tunes a chain job: per-pair windows, escalation ladder
// and probe budget. Normalization expands the windows and ladder to their
// explicit forms, so the request hash covers the full per-pair window list.
type ChainJobOptions = service.ChainOptions

// ChainReport is a chain job result's per-pair breakdown: the composed
// off-diagonals plus each pair's matrix, winning method and escalation
// attempts.
type ChainReport = service.ChainReport

// ServiceStats aggregates cache, scheduler, job and session accounting.
type ServiceStats = service.Stats

// NewService builds an extraction service.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// ServiceHandler returns the service's JSON HTTP API (the surface cmd/vgxd
// serves), mountable into any http.Server.
func ServiceHandler(s *Service) http.Handler { return s.Handler() }

// Table1Requests builds the paper's full evaluation — all 12 benchmarks
// under both methods — as one batch for Service.Batch.
func Table1Requests() []JobRequest { return service.Table1Requests() }

// RunJob executes one request synchronously through the service's cache and
// worker pool.
func RunJob(ctx context.Context, s *Service, req JobRequest) (*JobResult, error) {
	return s.Run(ctx, req)
}

// CloseService drains the service for shutdown: running extractions finish
// (bounded by ctx), queued jobs settle as cancelled, sessions close.
func CloseService(ctx context.Context, s *Service) error { return s.Close(ctx) }

// Fleet calibration: continuous drift-aware monitoring and recalibration of
// many devices, owned by the service (Service.Fleet()) and served under
// /v1/fleet. See internal/fleet for the scheduling semantics.

// FleetManager owns a fleet of drifting simulated devices: it spot-checks
// matrix freshness on a virtual clock, scores staleness, and schedules
// re-extractions on the service's worker pool under a global probe budget.
type FleetManager = fleet.Manager

// FleetPolicy tunes the calibration loop (check cadence, staleness
// threshold, hysteresis, probe budget); the zero value is a reasonable
// lab-day configuration.
type FleetPolicy = fleet.Policy

// FleetDeviceConfig registers one device: an ID, a scheduling weight and a
// device spec (including its lever-arm drift profile) — either a double-dot
// Spec or an N-dot Chain spec, whose adjacent pairs are then monitored and
// recalibrated individually.
type FleetDeviceConfig = fleet.DeviceConfig

// FleetStatus is a fleet-wide snapshot; FleetDeviceView one device's.
type FleetStatus = fleet.Status

// FleetDeviceView is a serialisable per-device snapshot; its Pairs field
// breaks the aggregates down per adjacent pair for chain devices.
type FleetDeviceView = fleet.DeviceView

// FleetPairStatus is one adjacent pair's calibration snapshot inside a
// FleetDeviceView.
type FleetPairStatus = fleet.PairStatus

// FleetEvent is one calibration-history entry.
type FleetEvent = fleet.Event

// FleetSummary is the outcome of a simulated fleet run (cmd/vgxfleet).
type FleetSummary = fleet.Summary

// DefaultFleetConfigs builds n heterogeneous device configs cycling through
// the canonical drift profiles (quiet / standard / wandering / jumpy),
// fully determined by seed.
func DefaultFleetConfigs(n int, seed uint64) ([]FleetDeviceConfig, error) {
	return fleet.DefaultFleet(n, seed)
}

// DefaultChainFleetConfigs builds n chain device configs of the given dot
// count with heterogeneous per-pair drift, fully determined by seed.
func DefaultChainFleetConfigs(n, dots int, seed uint64) []FleetDeviceConfig {
	return fleet.DefaultChainFleet(n, dots, seed)
}

// Persistence & replay: with ServiceConfig.DataDir set the service journals
// cacheable results and fleet calibration state to an append-only,
// CRC-framed store (internal/store) and restores both on the next start;
// with RecordTraces it also records every extraction's probe trace
// (internal/trace) for offline, zero-probe replay. cmd/vgxd exposes the
// flags; cmd/vgxreplay re-executes recordings and diffs the matrices.

// ReplayOutcome is the verdict of re-executing one recorded extraction:
// whether the reproduced result is identical (bit-identical floats) to the
// recorded one, with field-level diffs when it is not.
type ReplayOutcome = service.ReplayOutcome

// ReplayTrace re-executes the extraction recorded in a probe-trace file
// against the recorded samples — zero live-instrument probes — and diffs
// the reproduced result against the recorded one.
func ReplayTrace(path string) (*ReplayOutcome, error) { return service.ReplayTrace(path) }

// ReplayJournal re-executes every extraction journaled under a durable
// service's data dir against fresh instruments and diffs each reproduced
// result against the journaled one. Session-target entries are skipped.
func ReplayJournal(ctx context.Context, dataDir string, workers int) ([]ReplayOutcome, error) {
	return service.ReplayJournal(ctx, dataDir, workers)
}

// ListTraces returns the probe-trace files under dir (a durable service
// writes them to <DataDir>/traces), sorted by name.
func ListTraces(dir string) ([]string, error) { return trace.List(dir) }

// Observability: every service registers its metric families (counters,
// gauges, fixed-bucket histograms — all vgx_*-prefixed) on a telemetry
// registry exposed in Prometheus text format at GET /metrics, and, when
// durable, journals a span tree per executed job recording where the job
// spent wall-clock and virtual (simulated-instrument) time. See
// internal/telemetry for the registry semantics and the metric catalogue
// in README.md.

// TelemetryRegistry is a service's metric registry, obtained via
// Service.Telemetry(); embedders register their own families on it to
// share the service's /metrics endpoint.
type TelemetryRegistry = telemetry.Registry

// JobSpan is one node of a job's recorded timing tree: name, attributes,
// wall-clock and virtual durations, children. Render writes the indented
// tree listing that `vgxreplay -spans` prints.
type JobSpan = telemetry.Span

// SpanRecord pairs a journaled span tree with its request hash.
type SpanRecord = service.SpanRecord

// LoadSpans reads every journaled job span tree under a durable service's
// data dir, in hash order — the vgxreplay -spans path.
func LoadSpans(dataDir string) ([]SpanRecord, error) { return service.LoadSpans(dataDir) }

// ErrServiceOverloaded rejects submissions once the worker-pool queue is
// at ServiceConfig.MaxQueueDepth; the HTTP API maps it to 429 with a
// Retry-After header. Cache hits are still served under overload.
var ErrServiceOverloaded = service.ErrOverloaded

// IsOverloaded reports whether err is the load-shedding rejection — the
// typed check callers use to decide "back off and retry" versus "fail":
// overload is the one service error that is about the server's moment,
// not the request's content. examples/serving shows the retry loop.
func IsOverloaded(err error) bool { return errors.Is(err, service.ErrOverloaded) }

// Alerting & history: every service scrapes its own metric registry into
// an in-process time-series store (internal/tsdb — fixed-size,
// delta-encoded rings, bounded memory) and evaluates a declarative SLO
// rule catalogue (internal/alert) over it. Instant and range queries are
// served at GET /v1/query, the alert board at GET /v1/alerts, and a
// flight-recorder bundle (metrics + tsdb windows + alerts + span trees +
// build info, one tar.gz) at GET /debug/bundle. On a durable service
// alert transitions are journaled, so history survives kill -9; cmd/vgxtop
// is the terminal dashboard over the same endpoints.

// AlertRule is one declarative alert: an expression over the tsdb, a
// comparison threshold and a for-duration.
type AlertRule = alert.Rule

// AlertExpr is one scalar-valued tsdb query inside a rule.
type AlertExpr = alert.Expr

// AlertEvent is one journaled firing/resolved transition.
type AlertEvent = alert.Event

// AlertStatus is one rule's current standing (GET /v1/alerts).
type AlertStatus = alert.Status

// DefaultAlertRules is the stock SLO catalogue a service runs when
// ServiceConfig.AlertRules is nil: load shedding, fleet staleness,
// persist errors, surrogate escalation ratio, pool saturation.
func DefaultAlertRules() []AlertRule { return alert.DefaultRules() }

// LoadAlertHistory reads the journaled alert transitions under a durable
// service's data dir, oldest first — the vgxreplay -alerts path.
func LoadAlertHistory(dataDir string) ([]AlertEvent, error) {
	return service.LoadAlertHistory(dataDir)
}

// TSDBQuery is one instant/range query against a service's in-process
// time-series store; TSDBResult its answer. The HTTP form is
// GET /v1/query?fn=&series=&window=&q=.
type TSDBQuery = tsdb.Query

// TSDBResult is a tsdb query's evaluated answer.
type TSDBResult = tsdb.Result
