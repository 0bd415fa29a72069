package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/tsdb"
)

// Handler returns the service's HTTP API, the surface cmd/vgxd serves:
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
// With Config.MaxQueueDepth set, submissions that would queue past the
// limit fail fast with 429 and a Retry-After header; cache hits and
// coalesced joins are still served under overload.
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
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if !Decode(w, r, &req) {
			return
		}
		jv, err := s.Submit(r.Context(), req)
		if err != nil {
			failErr(w, err)
			return
		}
		Reply(w, http.StatusAccepted, jv)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		jv, ok := s.Job(r.PathValue("id"))
		if !ok {
			Fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		Reply(w, http.StatusOK, jv)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.Cancel(r.PathValue("id")) {
			Fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		Reply(w, http.StatusOK, map[string]any{"cancelled": true})
	})

	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Requests []Request `json:"requests"`
			Table1   bool      `json:"table1"`
		}
		if !Decode(w, r, &body) {
			return
		}
		reqs := body.Requests
		if body.Table1 {
			reqs = append(reqs, Table1Requests()...)
		}
		if len(reqs) == 0 {
			Fail(w, http.StatusBadRequest, errors.New("empty batch: set requests or table1"))
			return
		}
		items := s.Batch(r.Context(), reqs)
		Reply(w, http.StatusOK, map[string]any{"items": items})
	})

	mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"benchmarks": s.BenchmarkList()})
	})

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Spec device.DoubleDotSpec `json:"spec"`
		}
		if !Decode(w, r, &body) {
			return
		}
		sess, err := s.reg.OpenSim(body.Spec)
		if err != nil {
			Fail(w, http.StatusBadRequest, err)
			return
		}
		Reply(w, http.StatusCreated, sess.Info())
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"sessions": s.reg.Sessions()})
	})

	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.reg.CloseSession(r.PathValue("id")) {
			Fail(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
			return
		}
		Reply(w, http.StatusOK, map[string]any{"closed": true})
	})

	mux.HandleFunc("GET /v1/surrogate", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"twins": s.Surrogates()})
	})

	mux.HandleFunc("POST /v1/surrogate/train", func(w http.ResponseWriter, r *http.Request) {
		fed, err := s.TrainSurrogates()
		if err != nil {
			Fail(w, http.StatusBadRequest, err)
			return
		}
		Reply(w, http.StatusOK, map[string]any{"trained": fed})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
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
		Reply(w, http.StatusOK, body)
	})

	mux.HandleFunc("POST /v1/fleet/devices", func(w http.ResponseWriter, r *http.Request) {
		var cfg fleet.DeviceConfig
		if !Decode(w, r, &cfg) {
			return
		}
		dv, err := s.fleet.Register(cfg)
		if err != nil {
			Fail(w, http.StatusBadRequest, err)
			return
		}
		Reply(w, http.StatusCreated, dv)
	})

	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, s.fleet.Status())
	})

	mux.HandleFunc("GET /v1/fleet/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		dv, ok := s.fleet.Device(r.PathValue("id"))
		if !ok {
			Fail(w, http.StatusNotFound, fmt.Errorf("unknown fleet device %q", r.PathValue("id")))
			return
		}
		Reply(w, http.StatusOK, dv)
	})

	// History serves the bounded in-memory ring (Policy.HistoryCap, default
	// 128 events). ?journal=1 reads the full persisted event log from the
	// journal instead (durable services only); ?limit=N keeps the newest N.
	mux.HandleFunc("GET /v1/fleet/devices/{id}/history", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		var evs []fleet.Event
		var ok bool
		if r.URL.Query().Get("journal") != "" {
			if evs, ok = s.fleet.JournalHistory(id); !ok {
				Fail(w, http.StatusBadRequest, errors.New("no journal attached: start the service with a data dir"))
				return
			}
			if _, known := s.fleet.Device(id); !known {
				Fail(w, http.StatusNotFound, fmt.Errorf("unknown fleet device %q", id))
				return
			}
		} else if evs, ok = s.fleet.History(id); !ok {
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
	})

	// ?pair=N forces a single adjacent pair of a chain device (partial
	// recalibration); without it every pair of the device is re-extracted.
	mux.HandleFunc("POST /v1/fleet/devices/{id}/recalibrate", func(w http.ResponseWriter, r *http.Request) {
		var ev fleet.Event
		var err error
		if p := r.URL.Query().Get("pair"); p != "" {
			var pair int
			if pair, err = strconv.Atoi(p); err != nil {
				Fail(w, http.StatusBadRequest, fmt.Errorf("bad pair %q", p))
				return
			}
			ev, err = s.fleet.ForceRecalibratePair(r.Context(), r.PathValue("id"), pair)
		} else {
			ev, err = s.fleet.ForceRecalibrate(r.Context(), r.PathValue("id"))
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
	})

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
		if err := s.fleet.CheckAdvance(body.AdvanceS, body.Ticks); err != nil {
			Fail(w, http.StatusBadRequest, err)
			return
		}
		reports := make([]fleet.TickReport, 0, body.Ticks)
		for i := 0; i < body.Ticks; i++ {
			rep, err := s.fleet.Tick(r.Context(), body.AdvanceS)
			if err != nil {
				Fail(w, http.StatusBadRequest, err)
				return
			}
			reports = append(reports, rep)
		}
		// Tick-driven scrape: the tsdb and alert engine advance on the
		// same virtual instant the fleet just reached, so replaying a
		// tick schedule replays the alert sequence exactly.
		s.ScrapeNow(s.fleet.Now())
		Reply(w, http.StatusOK, map[string]any{"now": s.fleet.Now(), "reports": reports})
	})

	// The observability surface: instant/range queries over the scraped
	// tsdb, the alert board, and the flight-recorder bundle.
	//
	//	GET /v1/query?fn=rate&series=vgx_service_shed_total&window=60
	//	GET /v1/query?fn=quantile&series=vgx_service_job_seconds&window=300&q=0.99
	//	GET /v1/alerts
	//	GET /debug/bundle
	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query()
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
		res, err := s.obs.db.Query(q)
		if err != nil {
			Fail(w, http.StatusBadRequest, err)
			return
		}
		Reply(w, http.StatusOK, res)
	})

	mux.HandleFunc("GET /v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		eng := s.AlertEngine()
		if eng == nil {
			Fail(w, http.StatusNotFound, errors.New("alerts disabled"))
			return
		}
		Reply(w, http.StatusOK, map[string]any{
			"alerts":  eng.Statuses(),
			"firing":  eng.Firing(),
			"history": eng.History(64),
		})
	})

	mux.HandleFunc("GET /debug/bundle", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/gzip")
		w.Header().Set("Content-Disposition", `attachment; filename="vgx-bundle.tar.gz"`)
		if err := s.WriteBundle(w); err != nil {
			// Headers are gone; the truncated archive is the best signal left.
			return
		}
	})

	mux.HandleFunc("GET /v1/spans", func(w http.ResponseWriter, r *http.Request) {
		Reply(w, http.StatusOK, map[string]any{"hashes": s.SpanHashes()})
	})

	mux.HandleFunc("GET /v1/spans/{hash}", func(w http.ResponseWriter, r *http.Request) {
		sp, ok := s.SpanTree(r.PathValue("hash"))
		if !ok {
			Fail(w, http.StatusNotFound, fmt.Errorf("no span tree for %q", r.PathValue("hash")))
			return
		}
		Reply(w, http.StatusOK, sp)
	})

	mux.Handle("GET /metrics", telemetry.Handler(s.metrics.reg))

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		code := http.StatusOK
		if h.Draining {
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

// Decode, Reply and Fail are the JSON dialect of the HTTP API, shared by
// the shard router so clients cannot tell one process from many.

// Decode parses a JSON body into v, rejecting unknown fields so client
// typos surface as 400s instead of silently-defaulted jobs. On failure it
// has already answered 400 and returns false.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client has gone; there is no one to tell.
	_, _ = w.Write(append(body, '\n'))
}

// Fail answers code with {"error": err}.
func Fail(w http.ResponseWriter, code int, err error) {
	Reply(w, code, map[string]any{"error": err.Error()})
}

// failErr maps service errors onto status codes: overload sheds with 429
// and a Retry-After hint, everything else is a caller error.
func failErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", "1")
		Fail(w, http.StatusTooManyRequests, err)
		return
	}
	Fail(w, http.StatusBadRequest, err)
}
