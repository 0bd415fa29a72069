package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/tsdb"
)

// Backend is what the HTTP API serves: one Service, or a sharded cluster
// of them (internal/shard). NewHandler owns the only route table; the
// routes decode, call the backend and map its errors onto status codes.
// Where the work lands and how scattered answers merge is the backend's
// own business, so the sharded replies differ from a single service's in
// exactly the places its methods answer differently.
type Backend interface {
	Submit(ctx context.Context, req Request) (JobView, error)
	Jobs() []JobView
	Job(id string) (JobView, bool)
	Cancel(id string) bool
	// Batch runs reqs in order. The batch route may pass requests it
	// prepared and shares across calls: they must not be modified.
	Batch(ctx context.Context, reqs []Request) []BatchItem
	OpenSim(spec device.DoubleDotSpec) (SessionInfo, error)
	Sessions() []SessionInfo
	CloseSession(id string) bool
	Surrogates() []SurrogateInfo
	TrainSurrogates() (map[string]int, error)
	// StatsBody is the GET /v1/stats reply.
	StatsBody() map[string]any
	RegisterDevice(cfg fleet.DeviceConfig) (fleet.DeviceView, error)
	FleetStatus() fleet.Status
	// FleetTick advances the fleet clock ticks times by advanceS virtual
	// seconds, scrapes at the new instant and returns the reply.
	FleetTick(ctx context.Context, advanceS float64, ticks int) (map[string]any, error)
	Query(q tsdb.Query) (*tsdb.Result, error)
	// Alerts is the GET /v1/alerts reply; false when alerts are disabled.
	Alerts() (map[string]any, bool)
	SpanHashes() []string
	SpanTree(hash string) (*telemetry.Span, bool)
	// Exposition renders GET /metrics in Prometheus text format.
	Exposition() (string, error)
	// Liveness is the GET /v1/healthz reply and whether it is healthy.
	Liveness() (any, bool)

	// DeviceOwner returns the member service that owns fleet device id;
	// the per-device fleet routes run on it.
	DeviceOwner(id string) (*Service, error)
	// Member returns the member service named by a ?shard= value, for
	// routes one process answers (the debug bundle, a pinned query, the
	// suite listing); "" picks any live member.
	Member(shard string) (*Service, error)
}

// ErrShardDown rejects work placed on a member that is down; the API
// answers it with 503. internal/shard re-exports it.
var ErrShardDown = errors.New("shard: routed shard is down")

// Handler returns the service's HTTP API, the surface cmd/vgxd serves:
// NewHandler over the service itself.
func (s *Service) Handler() http.Handler { return NewHandler(s) }

// NewHandler returns the HTTP API over b:
//
//	POST   /v1/jobs            submit one Request; returns the job view
//	GET    /v1/jobs            list jobs in submission order
//	GET    /v1/jobs/{id}       job status (result embedded once done)
//	DELETE /v1/jobs/{id}       cancel a queued job
//	POST   /v1/batch           {"requests":[...]} or {"table1":true}; synchronous
//	GET    /v1/benchmarks      the qflow suite listing
//	POST   /v1/sessions        open a live sim session from a device spec
//	GET    /v1/sessions        list open sessions
//	DELETE /v1/sessions/{id}   close a session
//	GET    /v1/surrogate       list trained digital twins (key order)
//	POST   /v1/surrogate/train retrain twins from the recorded probe traces
//	GET    /v1/stats           cache / scheduler / job / session / surrogate accounting
//	GET    /v1/spans           request hashes with journaled span trees (durable services)
//	GET    /v1/spans/{hash}    one job's journaled span tree (JSON)
//	GET    /v1/query           instant/range query over the in-process tsdb
//	                           (?fn=last|avg|min|max|sum|rate|quantile|range,
//	                           ?series=<sample or family>, ?window=S, ?q=P)
//	GET    /v1/alerts          alert rule statuses, firing set and recent history
//	GET    /debug/bundle       flight-recorder bundle (tar.gz: metrics, tsdb
//	                           windows, alerts, span trees, fleet + build info)
//	GET    /v1/healthz         liveness, uptime and drain state
//	GET    /healthz            liveness (legacy alias)
//	GET    /metrics            Prometheus text exposition of every vgx_* family
//
// Every response echoes an X-Request-ID header (the caller's, if sent, else
// a generated one); the ID rides the request context into job execution and
// is recorded as the req_id attribute of the job's span tree.
//
// Errors map onto status codes in one place: overload (Config.MaxQueueDepth)
// answers 429 with a Retry-After header, work placed on a down shard 503,
// and any other backend error 400. Cache hits and coalesced joins are still
// served under overload.
//
// A sim or chainSim spec with "surrogate": {"threshold": 0.35} probes
// twin-first: the device's learned twin (internal/surrogate) serves
// high-confidence probes and only the rest reach the simulated instrument;
// escalated measurements train the twin further. Results carry the
// serve/escalate split in their "surrogate" report. Surrogate jobs bypass
// the result cache — their outcome advances twin state — and with tracing on
// their traces embed the twin snapshot, so vgxreplay reproduces them bit for
// bit.
//
// Job kinds include "chain": an N-dot chain extraction against a chainSim
// spec target, decomposed into concurrent pair extractions (see
// internal/chainx); its result embeds per-pair matrices and escalation
// records.
//
// Fleet calibration (continuous drift-aware monitoring of many devices,
// double dots and N-dot chains; chain devices are monitored per pair and
// partially recalibrated — only the drifted pair is re-extracted):
//
//	POST /v1/fleet/devices                      register a device {id?, weight?, spec} or {id?, weight?, chain}
//	GET  /v1/fleet                              fleet status (devices in ID order, per-pair breakdown)
//	GET  /v1/fleet/devices/{id}                 one device's snapshot
//	GET  /v1/fleet/devices/{id}/history         calibration history, oldest first
//	                                            (?limit=N newest N, ?journal=1 full persisted log)
//	POST /v1/fleet/devices/{id}/recalibrate     force an immediate re-extraction (?pair=N one pair only)
//	POST /v1/fleet/tick                         advance the virtual clock {advanceS, ticks?}
//
// All bodies and responses are JSON.
func NewHandler(b Backend) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if !Decode(w, r, &req) {
			return
		}
		jv, err := b.Submit(r.Context(), req)
		if err != nil {
			failErr(w, err)
			return
		}
		Reply(w, http.StatusAccepted, jv)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"jobs": b.Jobs()})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		jv, ok := b.Job(r.PathValue("id"))
		if !ok {
			Fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		Reply(w, http.StatusOK, jv)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !b.Cancel(r.PathValue("id")) {
			Fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		Reply(w, http.StatusOK, map[string]any{"cancelled": true})
	})

	memo := newBatchMemo()
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		serveBatch(w, r, b, memo)
	})

	// The suite is identical on every member; any live one answers.
	mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		svc, err := b.Member("")
		if err != nil {
			failErr(w, err)
			return
		}
		Reply(w, http.StatusOK, map[string]any{"benchmarks": svc.BenchmarkList()})
	})

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Spec device.DoubleDotSpec `json:"spec"`
		}
		if !Decode(w, r, &body) {
			return
		}
		info, err := b.OpenSim(body.Spec)
		if err != nil {
			failErr(w, err)
			return
		}
		Reply(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"sessions": b.Sessions()})
	})

	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !b.CloseSession(r.PathValue("id")) {
			Fail(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
			return
		}
		Reply(w, http.StatusOK, map[string]any{"closed": true})
	})

	mux.HandleFunc("GET /v1/surrogate", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"twins": b.Surrogates()})
	})

	mux.HandleFunc("POST /v1/surrogate/train", func(w http.ResponseWriter, r *http.Request) {
		fed, err := b.TrainSurrogates()
		if err != nil {
			failErr(w, err)
			return
		}
		Reply(w, http.StatusOK, map[string]any{"trained": fed})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, b.StatsBody())
	})

	mux.HandleFunc("POST /v1/fleet/devices", func(w http.ResponseWriter, r *http.Request) {
		var cfg fleet.DeviceConfig
		if !Decode(w, r, &cfg) {
			return
		}
		dv, err := b.RegisterDevice(cfg)
		if err != nil {
			failErr(w, err)
			return
		}
		Reply(w, http.StatusCreated, dv)
	})

	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, b.FleetStatus())
	})

	// The per-device fleet routes run on the member that owns the device.
	perDevice := func(route func(w http.ResponseWriter, r *http.Request, svc *Service)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			svc, err := b.DeviceOwner(r.PathValue("id"))
			if err != nil {
				failErr(w, err)
				return
			}
			route(w, r, svc)
		}
	}

	mux.HandleFunc("GET /v1/fleet/devices/{id}", perDevice(func(w http.ResponseWriter, r *http.Request, svc *Service) {
		dv, ok := svc.fleet.Device(r.PathValue("id"))
		if !ok {
			Fail(w, http.StatusNotFound, fmt.Errorf("unknown fleet device %q", r.PathValue("id")))
			return
		}
		Reply(w, http.StatusOK, dv)
	}))

	// History serves the bounded in-memory ring (Policy.HistoryCap, default
	// 128 events). ?journal=1 reads the full persisted event log from the
	// journal instead (durable services only); ?limit=N keeps the newest N.
	mux.HandleFunc("GET /v1/fleet/devices/{id}/history", perDevice(func(w http.ResponseWriter, r *http.Request, svc *Service) {
		id := r.PathValue("id")
		var evs []fleet.Event
		var ok bool
		if r.URL.Query().Get("journal") != "" {
			if evs, ok = svc.fleet.JournalHistory(id); !ok {
				Fail(w, http.StatusBadRequest, errors.New("no journal attached: start the service with a data dir"))
				return
			}
			if _, known := svc.fleet.Device(id); !known {
				Fail(w, http.StatusNotFound, fmt.Errorf("unknown fleet device %q", id))
				return
			}
		} else if evs, ok = svc.fleet.History(id); !ok {
			Fail(w, http.StatusNotFound, fmt.Errorf("unknown fleet device %q", id))
			return
		}
		if lim := r.URL.Query().Get("limit"); lim != "" {
			n, err := strconv.Atoi(lim)
			if err != nil || n < 0 {
				Fail(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", lim))
				return
			}
			if n < len(evs) {
				evs = evs[len(evs)-n:]
			}
		}
		Reply(w, http.StatusOK, map[string]any{"events": evs})
	}))

	// ?pair=N forces a single adjacent pair of a chain device (partial
	// recalibration); without it every pair of the device is re-extracted.
	mux.HandleFunc("POST /v1/fleet/devices/{id}/recalibrate", perDevice(func(w http.ResponseWriter, r *http.Request, svc *Service) {
		var ev fleet.Event
		var err error
		if p := r.URL.Query().Get("pair"); p != "" {
			var pair int
			if pair, err = strconv.Atoi(p); err != nil {
				Fail(w, http.StatusBadRequest, fmt.Errorf("bad pair %q", p))
				return
			}
			ev, err = svc.fleet.ForceRecalibratePair(r.Context(), r.PathValue("id"), pair)
		} else {
			ev, err = svc.fleet.ForceRecalibrate(r.Context(), r.PathValue("id"))
		}
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, fleet.ErrUnknownDevice) {
				code = http.StatusNotFound
			}
			Fail(w, code, err)
			return
		}
		Reply(w, http.StatusOK, ev)
	}))

	mux.HandleFunc("POST /v1/fleet/tick", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			AdvanceS float64 `json:"advanceS"` // virtual seconds per tick
			Ticks    int     `json:"ticks"`    // default 1
		}
		if !Decode(w, r, &body) {
			return
		}
		if body.Ticks <= 0 {
			body.Ticks = 1
		}
		if body.Ticks > 100000 {
			Fail(w, http.StatusBadRequest, errors.New("ticks out of range"))
			return
		}
		reply, err := b.FleetTick(r.Context(), body.AdvanceS, body.Ticks)
		if err != nil {
			failErr(w, err)
			return
		}
		Reply(w, http.StatusOK, reply)
	})

	// The observability surface: instant/range queries over the scraped
	// tsdb, the alert board, and the flight-recorder bundle.
	//
	//	GET /v1/query?fn=rate&series=vgx_service_shed_total&window=60
	//	GET /v1/query?fn=quantile&series=vgx_service_job_seconds&window=300&q=0.99
	//	GET /v1/alerts
	//	GET /debug/bundle
	//
	// ?shard=i pins a query to one member's own, unmerged answer.
	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query()
		query := b.Query
		if v := qs.Get("shard"); v != "" {
			svc, err := b.Member(v)
			if err != nil {
				failErr(w, err)
				return
			}
			query = svc.Query
		}
		q := tsdb.Query{Fn: qs.Get("fn"), Series: qs.Get("series")}
		if v := qs.Get("window"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				Fail(w, http.StatusBadRequest, fmt.Errorf("bad window %q", v))
				return
			}
			q.WindowS = f
		}
		if v := qs.Get("q"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				Fail(w, http.StatusBadRequest, fmt.Errorf("bad q %q", v))
				return
			}
			q.Q = f
		}
		res, err := query(q)
		if err != nil {
			failErr(w, err)
			return
		}
		Reply(w, http.StatusOK, res)
	})

	mux.HandleFunc("GET /v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		board, ok := b.Alerts()
		if !ok {
			Fail(w, http.StatusNotFound, errors.New("alerts disabled"))
			return
		}
		Reply(w, http.StatusOK, board)
	})

	// A bundle is one process's flight recording: ?shard=i picks the
	// member, shard 0 by default.
	mux.HandleFunc("GET /debug/bundle", func(w http.ResponseWriter, r *http.Request) {
		svc, err := b.Member(cmp.Or(r.URL.Query().Get("shard"), "0"))
		if err != nil {
			failErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/gzip")
		w.Header().Set("Content-Disposition", `attachment; filename="vgx-bundle.tar.gz"`)
		// On failure the headers are gone; the truncated archive is the
		// best signal left.
		_ = svc.WriteBundle(w)
	})

	mux.HandleFunc("GET /v1/spans", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"hashes": b.SpanHashes()})
	})

	mux.HandleFunc("GET /v1/spans/{hash}", func(w http.ResponseWriter, r *http.Request) {
		sp, ok := b.SpanTree(r.PathValue("hash"))
		if !ok {
			Fail(w, http.StatusNotFound, fmt.Errorf("no span tree for %q", r.PathValue("hash")))
			return
		}
		Reply(w, http.StatusOK, sp)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		body, err := b.Exposition()
		if err != nil {
			Fail(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", telemetry.ContentType)
		_, _ = io.WriteString(w, body)
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		h, ok := b.Liveness()
		code := http.StatusOK
		if !ok {
			code = http.StatusServiceUnavailable
		}
		Reply(w, code, h)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"ok": true})
	})

	// Request-ID middleware: adopt the caller's X-Request-ID (or mint a
	// process-local one), echo it on the response and thread it through the
	// request context into job execution and span output.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > 128 {
			id = nextRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		mux.ServeHTTP(w, r.WithContext(WithRequestID(r.Context(), id)))
	})
}

// The Backend calls a single service answers itself; the rest (Submit,
// Jobs, Batch, Surrogates, SpanTree, ...) are its own API.

// OpenSim opens a live sim session from a device spec.
func (s *Service) OpenSim(spec device.DoubleDotSpec) (SessionInfo, error) {
	sess, err := s.reg.OpenSim(spec)
	if err != nil {
		return SessionInfo{}, err
	}
	return sess.Info(), nil
}

// Sessions lists open sessions sorted by ID.
func (s *Service) Sessions() []SessionInfo { return s.reg.Sessions() }

// CloseSession closes a session; false if it is unknown.
func (s *Service) CloseSession(id string) bool { return s.reg.CloseSession(id) }

// StatsBody is the GET /v1/stats reply: Stats with the hit rate, and the
// store accounting only when durable.
func (s *Service) StatsBody() map[string]any {
	st := s.Stats()
	body := map[string]any{
		"cache":     st.Cache,
		"hitRate":   st.Cache.HitRate(),
		"scheduler": st.Scheduler,
		"jobs":      st.Jobs,
		"sessions":  st.Sessions,
		"surrogate": st.Surrogate,
	}
	if st.Store != nil {
		body["store"] = st.Store
		body["persistErrs"] = st.PersistErrs
	}
	if len(st.MethodProbes) > 0 {
		body["methodProbes"] = st.MethodProbes
	}
	return body
}

// RegisterDevice adds a device to the fleet.
func (s *Service) RegisterDevice(cfg fleet.DeviceConfig) (fleet.DeviceView, error) {
	return s.fleet.Register(cfg)
}

// FleetStatus is the fleet-wide snapshot.
func (s *Service) FleetStatus() fleet.Status { return s.fleet.Status() }

// FleetTick ticks the fleet and replies {now, reports}. The scrape that
// follows is tick-driven: the tsdb and alert engine advance on the same
// virtual instant the fleet just reached, so replaying a tick schedule
// replays the alert sequence exactly.
func (s *Service) FleetTick(ctx context.Context, advanceS float64, ticks int) (map[string]any, error) {
	if err := s.fleet.CheckAdvance(advanceS, ticks); err != nil {
		return nil, err
	}
	reports := make([]fleet.TickReport, 0, ticks)
	for i := 0; i < ticks; i++ {
		rep, err := s.fleet.Tick(ctx, advanceS)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	s.ScrapeNow(s.fleet.Now())
	return map[string]any{"now": s.fleet.Now(), "reports": reports}, nil
}

// Query evaluates one query over the service's tsdb.
func (s *Service) Query(q tsdb.Query) (*tsdb.Result, error) { return s.obs.db.Query(q) }

// Alerts is the alert board: rule statuses, the firing set and the 64
// newest transitions.
func (s *Service) Alerts() (map[string]any, bool) {
	eng := s.AlertEngine()
	if eng == nil {
		return nil, false
	}
	return map[string]any{
		"alerts":  eng.Statuses(),
		"firing":  eng.Firing(),
		"history": eng.History(64),
	}, true
}

// Exposition renders the service's metric registry.
func (s *Service) Exposition() (string, error) { return s.metrics.reg.Expose(), nil }

// Liveness is Health, healthy until Close begins draining.
func (s *Service) Liveness() (any, bool) {
	h := s.Health()
	return h, !h.Draining
}

// DeviceOwner returns s: a single service owns its whole fleet.
func (s *Service) DeviceOwner(string) (*Service, error) { return s, nil }

// Member returns s, whatever the shard: a single service is its only
// member.
func (s *Service) Member(string) (*Service, error) { return s, nil }

// Decode, Reply and Fail are the JSON dialect of the HTTP API.

// Decode parses a JSON body into v, rejecting unknown fields so client
// typos surface as 400s instead of silently-defaulted jobs. On failure it
// has already answered 400 and returns false.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	return decode(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// decode is Decode over the body reader src.
func decode(w http.ResponseWriter, src io.Reader, v any) bool {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		Fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// Reply answers code with v as JSON. v is encoded before the status is
// written, so a value JSON cannot carry (a non-finite float, say) answers
// 500 with an error body instead of code with an empty one.
func Reply(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		// A map of one string always encodes.
		body, _ = json.Marshal(map[string]string{"error": fmt.Sprintf("encoding reply: %v", err)})
	}
	writeJSON(w, code, append(body, '\n'))
}

// writeJSON answers code with an encoded JSON body.
func writeJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client has gone; there is no one to tell.
	_, _ = w.Write(body)
}

// Fail answers code with {"error": err}.
func Fail(w http.ResponseWriter, code int, err error) {
	Reply(w, code, map[string]any{"error": err.Error()})
}

// failErr maps backend errors onto status codes: overload sheds with 429
// and a Retry-After hint — a shard's overload leaves a cluster exactly as
// it would leave the shard — a down shard is a 503, and everything else
// is a caller error.
func failErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		Fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShardDown):
		Fail(w, http.StatusServiceUnavailable, err)
	default:
		Fail(w, http.StatusBadRequest, err)
	}
}
