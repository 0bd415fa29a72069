package shard

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/fastvg/fastvg/internal/alert"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/tsdb"
)

// Handler returns the front door: the same HTTP surface a single service
// serves (see service.Handler), behind routing and scatter-gather.
//
// Routed verbatim to one shard — the owner of the request's identity:
//
//	POST   /v1/jobs                  RouteKey on the ring (sessions by ID prefix)
//	GET    /v1/jobs/{id}             shard prefix in the job ID
//	DELETE /v1/jobs/{id}             shard prefix in the job ID
//	POST   /v1/sessions              spec twin key on the ring
//	DELETE /v1/sessions/{id}         shard prefix in the session ID
//	/v1/fleet/devices/{id}...        device ID on the ring (proxied, so the
//	                                 shard's own status codes and headers —
//	                                 including 429 Retry-After — pass through)
//	GET    /v1/spans/{hash}          first shard that has the span tree
//
// Scatter-gather, merged deterministically (shard index order):
//
//	POST /v1/batch       grouped by owner, merged back into request order
//	GET  /v1/jobs        all shards' jobs, shard order then submission order
//	GET  /v1/sessions    merged, ID order
//	GET  /v1/surrogate   merged, key order
//	POST /v1/surrogate/train  fanned out; per-shard trained maps merged
//	GET  /v1/stats       summed, with a per-shard breakdown under "shards"
//	GET  /v1/fleet       summed counters, max clock, devices in ID order
//	POST /v1/fleet/tick  same tick applied to every shard's virtual clock
//	GET  /v1/spans       union of journaled hashes
//	GET  /v1/alerts      per-shard boards, rules prefixed "s<i>/"
//	GET  /v1/query       per-shard evaluation, series labelled {shard="i"}
//	                     (?shard=i for one shard's verbatim answer)
//	GET  /metrics        per-shard scrapes merged into one exposition with a
//	                     shard label on every sample; the router's own
//	                     families carry shard="router"
//	GET  /v1/healthz     rollup: ok = every shard up and accepting
//
// POST /v1/fleet/devices requires an explicit device ID on a multi-shard
// cluster (auto-minted IDs could not be routed back), and routes it on
// the ring. GET /debug/bundle takes ?shard=i (default 0) — a bundle is a
// per-process flight recording.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req service.Request
		if !service.Decode(w, r, &req) {
			return
		}
		jv, err := c.Submit(r.Context(), req)
		if err != nil {
			failErr(w, err)
			return
		}
		service.Reply(w, http.StatusAccepted, jv)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		service.Reply(w, http.StatusOK, map[string]any{"jobs": c.Jobs()})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		jv, ok := c.Job(r.PathValue("id"))
		if !ok {
			service.Fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		service.Reply(w, http.StatusOK, jv)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !c.Cancel(r.PathValue("id")) {
			service.Fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		service.Reply(w, http.StatusOK, map[string]any{"cancelled": true})
	})

	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Requests []service.Request `json:"requests"`
			Table1   bool              `json:"table1"`
		}
		if !service.Decode(w, r, &body) {
			return
		}
		reqs := body.Requests
		if body.Table1 {
			reqs = append(reqs, service.Table1Requests()...)
		}
		if len(reqs) == 0 {
			service.Fail(w, http.StatusBadRequest, errors.New("empty batch: set requests or table1"))
			return
		}
		service.Reply(w, http.StatusOK, map[string]any{"items": c.Batch(r.Context(), reqs)})
	})

	mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		// The suite is identical on every shard; ask any live one.
		svc, ok := c.anyShard()
		if !ok {
			service.Fail(w, http.StatusServiceUnavailable, ErrShardDown)
			return
		}
		service.Reply(w, http.StatusOK, map[string]any{"benchmarks": svc.BenchmarkList()})
	})

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Spec device.DoubleDotSpec `json:"spec"`
		}
		if !service.Decode(w, r, &body) {
			return
		}
		info, err := c.OpenSim(body.Spec)
		if err != nil {
			if errors.Is(err, ErrShardDown) {
				service.Fail(w, http.StatusServiceUnavailable, err)
				return
			}
			service.Fail(w, http.StatusBadRequest, err)
			return
		}
		service.Reply(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		service.Reply(w, http.StatusOK, map[string]any{"sessions": c.Sessions()})
	})

	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !c.CloseSession(r.PathValue("id")) {
			service.Fail(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
			return
		}
		service.Reply(w, http.StatusOK, map[string]any{"closed": true})
	})

	mux.HandleFunc("GET /v1/surrogate", func(w http.ResponseWriter, r *http.Request) {
		var twins []service.SurrogateInfo
		c.each(func(_ int, svc *service.Service) { twins = append(twins, svc.Surrogates()...) })
		sort.Slice(twins, func(i, j int) bool { return twins[i].Key < twins[j].Key })
		service.Reply(w, http.StatusOK, map[string]any{"twins": twins})
	})

	mux.HandleFunc("POST /v1/surrogate/train", func(w http.ResponseWriter, r *http.Request) {
		trained := make(map[string]int)
		var firstErr error
		c.each(func(_ int, svc *service.Service) {
			fed, err := svc.TrainSurrogates()
			if err != nil && firstErr == nil {
				firstErr = err
				return
			}
			for k, v := range fed {
				trained[k] += v
			}
		})
		if firstErr != nil {
			service.Fail(w, http.StatusBadRequest, firstErr)
			return
		}
		service.Reply(w, http.StatusOK, map[string]any{"trained": trained})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		service.Reply(w, http.StatusOK, c.statsBody())
	})

	mux.HandleFunc("POST /v1/fleet/devices", func(w http.ResponseWriter, r *http.Request) {
		var cfg fleet.DeviceConfig
		if !service.Decode(w, r, &cfg) {
			return
		}
		if cfg.ID == "" && len(c.nodes) > 1 {
			service.Fail(w, http.StatusBadRequest, errors.New(
				"sharded fleet registration needs an explicit device id: auto-minted ids cannot be routed"))
			return
		}
		idx := 0
		if cfg.ID != "" {
			idx = c.ring.Owner(cfg.ID)
		}
		svc, _, err := c.shard(idx)
		if err != nil {
			service.Fail(w, http.StatusServiceUnavailable, err)
			return
		}
		dv, err := svc.Fleet().Register(cfg)
		if err != nil {
			service.Fail(w, http.StatusBadRequest, err)
			return
		}
		service.Reply(w, http.StatusCreated, dv)
	})

	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		service.Reply(w, http.StatusOK, c.fleetStatus())
	})

	// Per-device fleet calls are proxied whole to the owning shard so its
	// status codes, bodies and headers pass through untouched.
	perDevice := func(w http.ResponseWriter, r *http.Request) {
		idx := c.ring.Owner(r.PathValue("id"))
		c.proxy(idx, w, r)
	}
	mux.HandleFunc("GET /v1/fleet/devices/{id}", perDevice)
	mux.HandleFunc("GET /v1/fleet/devices/{id}/history", perDevice)
	mux.HandleFunc("POST /v1/fleet/devices/{id}/recalibrate", perDevice)

	mux.HandleFunc("POST /v1/fleet/tick", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			AdvanceS float64 `json:"advanceS"`
			Ticks    int     `json:"ticks"`
		}
		if !service.Decode(w, r, &body) {
			return
		}
		if body.Ticks <= 0 {
			body.Ticks = 1
		}
		if body.Ticks > 100000 {
			service.Fail(w, http.StatusBadRequest, errors.New("ticks out of range"))
			return
		}
		// Reject a schedule any shard would refuse before one shard ticks.
		var checkErr error
		c.each(func(_ int, svc *service.Service) {
			if err := svc.Fleet().CheckAdvance(body.AdvanceS, body.Ticks); err != nil && checkErr == nil {
				checkErr = err
			}
		})
		if checkErr != nil {
			service.Fail(w, http.StatusBadRequest, checkErr)
			return
		}
		// Every shard's virtual clock advances by the same schedule, so
		// the fleet stays on one logical timeline; shards tick
		// concurrently — each owns a disjoint device slice.
		type shardTicks struct {
			Shard   int                `json:"shard"`
			Now     float64            `json:"now"`
			Reports []fleet.TickReport `json:"reports"`
		}
		results := make([]*shardTicks, len(c.nodes))
		var wg sync.WaitGroup
		var tickErr atomic.Value
		c.each(func(i int, svc *service.Service) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := &shardTicks{Shard: i}
				for t := 0; t < body.Ticks; t++ {
					rep, err := svc.Fleet().Tick(r.Context(), body.AdvanceS)
					if err != nil {
						tickErr.Store(err)
						return
					}
					st.Reports = append(st.Reports, rep)
				}
				st.Now = svc.Fleet().Now()
				svc.ScrapeNow(st.Now)
				results[i] = st
			}()
		})
		wg.Wait()
		if err, _ := tickErr.Load().(error); err != nil {
			service.Fail(w, http.StatusBadRequest, err)
			return
		}
		var now float64
		shards := make([]*shardTicks, 0, len(results))
		for _, st := range results {
			if st == nil {
				continue
			}
			if st.Now > now {
				now = st.Now
			}
			shards = append(shards, st)
		}
		service.Reply(w, http.StatusOK, map[string]any{"now": now, "shards": shards})
	})

	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query()
		if v := qs.Get("shard"); v != "" {
			i, err := strconv.Atoi(v)
			if err != nil {
				service.Fail(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", v))
				return
			}
			c.proxy(i, w, r)
			return
		}
		q := tsdb.Query{Fn: qs.Get("fn"), Series: qs.Get("series")}
		if v := qs.Get("window"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				service.Fail(w, http.StatusBadRequest, fmt.Errorf("bad window %q", v))
				return
			}
			q.WindowS = f
		}
		if v := qs.Get("q"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				service.Fail(w, http.StatusBadRequest, fmt.Errorf("bad q %q", v))
				return
			}
			q.Q = f
		}
		res, err := c.query(q)
		if err != nil {
			service.Fail(w, http.StatusBadRequest, err)
			return
		}
		service.Reply(w, http.StatusOK, res)
	})

	mux.HandleFunc("GET /v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		type board struct {
			alerts  []alert.Status
			firing  []string
			history []alert.Event
		}
		var alerts []alert.Status
		var firing []string
		var history []alert.Event
		seen := false
		c.each(func(i int, svc *service.Service) {
			eng := svc.AlertEngine()
			if eng == nil {
				return
			}
			seen = true
			b := board{alerts: eng.Statuses(), firing: eng.Firing(), history: eng.History(64)}
			prefix := fmt.Sprintf("s%d/", i)
			for _, st := range b.alerts {
				st.Rule.Name = prefix + st.Rule.Name
				alerts = append(alerts, st)
			}
			for _, f := range b.firing {
				firing = append(firing, prefix+f)
			}
			for _, ev := range b.history {
				ev.Rule = prefix + ev.Rule
				history = append(history, ev)
			}
		})
		if !seen {
			service.Fail(w, http.StatusNotFound, errors.New("alerts disabled"))
			return
		}
		sort.Slice(history, func(i, j int) bool { return history[i].AtS < history[j].AtS })
		service.Reply(w, http.StatusOK, map[string]any{
			"alerts": alerts, "firing": firing, "history": history,
		})
	})

	mux.HandleFunc("GET /debug/bundle", func(w http.ResponseWriter, r *http.Request) {
		idx := 0
		if v := r.URL.Query().Get("shard"); v != "" {
			i, err := strconv.Atoi(v)
			if err != nil {
				service.Fail(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", v))
				return
			}
			idx = i
		}
		c.proxy(idx, w, r)
	})

	mux.HandleFunc("GET /v1/spans", func(w http.ResponseWriter, r *http.Request) {
		set := make(map[string]struct{})
		c.each(func(_ int, svc *service.Service) {
			for _, h := range svc.SpanHashes() {
				set[h] = struct{}{}
			}
		})
		hashes := make([]string, 0, len(set))
		for h := range set {
			hashes = append(hashes, h)
		}
		sort.Strings(hashes)
		service.Reply(w, http.StatusOK, map[string]any{"hashes": hashes})
	})

	mux.HandleFunc("GET /v1/spans/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		var sp *telemetry.Span
		c.each(func(_ int, svc *service.Service) {
			if sp != nil {
				return
			}
			if got, ok := svc.SpanTree(hash); ok {
				sp = got
			}
		})
		if sp == nil {
			service.Fail(w, http.StatusNotFound, fmt.Errorf("no span tree for %q", hash))
			return
		}
		service.Reply(w, http.StatusOK, sp)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		body, err := c.mergedMetrics()
		if err != nil {
			service.Fail(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(body))
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := c.Health()
		code := http.StatusOK
		if !h.OK || h.Draining {
			code = http.StatusServiceUnavailable
		}
		service.Reply(w, code, h)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		service.Reply(w, http.StatusOK, map[string]any{"ok": true})
	})

	// Same request-ID contract as a single shard: adopt or mint, echo,
	// and thread through the context so the owning shard's span carries
	// the front-door ID.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > 128 {
			id = fmt.Sprintf("router-%06d", atomic.AddUint64(&c.reqID, 1))
		}
		w.Header().Set("X-Request-ID", id)
		r.Header.Set("X-Request-ID", id)
		mux.ServeHTTP(w, r.WithContext(service.WithRequestID(r.Context(), id)))
	})
}

// anyShard returns the lowest-index live shard.
func (c *Cluster) anyShard() (*service.Service, bool) {
	for i := range c.nodes {
		if svc, _ := c.nodes[i].get(); svc != nil {
			return svc, true
		}
	}
	return nil, false
}

// recorder is the in-memory http.ResponseWriter behind proxy: dispatch
// stays in-process (shards are goroutines, not network peers), and every
// header the shard sets — Retry-After above all — survives verbatim.
type recorder struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: make(http.Header), code: http.StatusOK} }

func (rec *recorder) Header() http.Header         { return rec.header }
func (rec *recorder) WriteHeader(code int)        { rec.code = code }
func (rec *recorder) Write(b []byte) (int, error) { return rec.buf.Write(b) }

// failErr maps errors crossing the front door onto status codes. A
// shard's overload shed must leave the router exactly as it left the
// shard — 429 with a Retry-After hint, never mangled into a 5xx — and a
// killed shard is the router's own 503.
func failErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, service.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		service.Fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShardDown):
		service.Fail(w, http.StatusServiceUnavailable, err)
	default:
		service.Fail(w, http.StatusBadRequest, err)
	}
}

// proxy dispatches the request to shard i's own handler and copies the
// response back — status, body and headers, so a shard's 429 stays a 429
// with its Retry-After, never a router-made 502.
func (c *Cluster) proxy(i int, w http.ResponseWriter, r *http.Request) {
	_, h, err := c.shard(i)
	if err != nil {
		code := http.StatusServiceUnavailable
		if !errors.Is(err, ErrShardDown) {
			code = http.StatusBadRequest
		}
		service.Fail(w, code, err)
		return
	}
	c.mRouted.With(strconv.Itoa(i)).Inc()
	rec := newRecorder()
	h.ServeHTTP(rec, r)
	for k, vs := range rec.header {
		w.Header()[k] = vs
	}
	w.WriteHeader(rec.code)
	_, _ = w.Write(rec.buf.Bytes())
}

// statsBody sums per-shard accounting and keeps the per-shard snapshots
// under "shards" (index order; down shards are null).
func (c *Cluster) statsBody() map[string]any {
	var cache service.CacheStats
	var surr service.SurrogateStats
	jobs := make(map[string]int)
	sessions, workers, running := 0, 0, 0
	var submitted, completed, failed, cancelled int64
	perShard := make([]*service.Stats, len(c.nodes))
	c.each(func(i int, svc *service.Service) {
		st := svc.Stats()
		perShard[i] = &st
		cache.Capacity += st.Cache.Capacity
		cache.Entries += st.Cache.Entries
		cache.Hits += st.Cache.Hits
		cache.Misses += st.Cache.Misses
		cache.Coalesced += st.Cache.Coalesced
		cache.Evictions += st.Cache.Evictions
		for k, v := range st.Jobs {
			jobs[k] += v
		}
		sessions += st.Sessions
		workers += st.Scheduler.Workers
		running += st.Scheduler.Running
		submitted += st.Scheduler.Submitted
		completed += st.Scheduler.Completed
		failed += st.Scheduler.Failed
		cancelled += st.Scheduler.Cancelled
		surr.Models += st.Surrogate.Models
		surr.Fitted += st.Surrogate.Fitted
		surr.Hits += st.Surrogate.Hits
		surr.Escalations += st.Surrogate.Escalations
	})
	return map[string]any{
		"cache":   cache,
		"hitRate": cache.HitRate(),
		"scheduler": map[string]any{
			"workers": workers, "running": running, "submitted": submitted,
			"completed": completed, "failed": failed, "cancelled": cancelled,
		},
		"jobs":      jobs,
		"sessions":  sessions,
		"surrogate": surr,
		"shards":    perShard,
	}
}

// fleetStatus merges per-shard fleet status: one logical fleet on one
// virtual clock (max across shards — ticks apply to all), capacity and
// work counters summed, devices re-sorted into ID order.
func (c *Cluster) fleetStatus() fleet.Status {
	var out fleet.Status
	c.each(func(_ int, svc *service.Service) {
		st := svc.Fleet().Status()
		if st.Now > out.Now {
			out.Now = st.Now
		}
		if st.BudgetWindowS > out.BudgetWindowS {
			out.BudgetWindowS = st.BudgetWindowS
		}
		if st.WorstStaleness > out.WorstStaleness {
			out.WorstStaleness = st.WorstStaleness
		}
		out.DeviceCount += st.DeviceCount
		out.PairCount += st.PairCount
		out.Budget += st.Budget
		out.BudgetUsed += st.BudgetUsed
		out.Checks += st.Checks
		out.Calibrations += st.Calibrations
		out.Recalibrations += st.Recalibrations
		out.PartialRecals += st.PartialRecals
		out.Forced += st.Forced
		out.FailedCals += st.FailedCals
		out.LostEvents += st.LostEvents
		out.ProbesSpent += st.ProbesSpent
		out.ProbesSaved += st.ProbesSaved
		out.MaxWindowProbes += st.MaxWindowProbes
		out.SkippedBudget += st.SkippedBudget
		out.Devices = append(out.Devices, st.Devices...)
	})
	sort.Slice(out.Devices, func(i, j int) bool { return out.Devices[i].ID < out.Devices[j].ID })
	return out
}

// query evaluates one tsdb query on every live shard and merges the
// answers: each shard's series gain a {shard="i"} label, AtS is the
// newest evaluation instant. fn=range dumps merge the same way.
func (c *Cluster) query(q tsdb.Query) (tsdb.Result, error) {
	if err := q.Validate(); err != nil {
		return tsdb.Result{}, err // even with no live shard to reject it
	}
	out := tsdb.Result{Fn: q.Fn, Series: q.Series, WindowS: q.WindowS, Q: q.Q}
	var firstErr error
	c.each(func(i int, svc *service.Service) {
		res, err := svc.TSDB().Query(q)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if res.AtS > out.AtS {
			out.AtS = res.AtS
		}
		tag := fmt.Sprintf("shard=\"%d\"", i)
		for _, v := range res.Values {
			v.Series = stampSeries(v.Series, tag)
			out.Values = append(out.Values, v)
		}
		for _, d := range res.Range {
			d.Series = stampSeries(d.Series, tag)
			out.Range = append(out.Range, d)
		}
	})
	if firstErr != nil {
		return tsdb.Result{}, firstErr
	}
	return out, nil
}

// stampSeries injects a label pair into a series signature of the form
// name or name{k="v",...}.
func stampSeries(series, tag string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i+1] + tag + "," + series[i+1:]
	}
	return series + "{" + tag + "}"
}

// mergedMetrics scrapes every live shard's registry plus the router's
// own, stamps each sample with its shard label and merges families by
// name — one exposition, per-shard series distinguishable, ready for the
// same Parse that built it.
func (c *Cluster) mergedMetrics() (string, error) {
	type scrape struct {
		label string
		text  string
	}
	var scrapes []scrape
	c.each(func(i int, svc *service.Service) {
		scrapes = append(scrapes, scrape{label: strconv.Itoa(i), text: svc.Telemetry().Expose()})
	})
	scrapes = append(scrapes, scrape{label: "router", text: c.tel.Expose()})

	var order []string
	merged := make(map[string]*telemetry.Family)
	for _, sc := range scrapes {
		fams, err := telemetry.Parse(strings.NewReader(sc.text))
		if err != nil {
			return "", fmt.Errorf("shard %s scrape: %w", sc.label, err)
		}
		for _, f := range fams {
			for si := range f.Samples {
				if f.Samples[si].Labels == nil {
					f.Samples[si].Labels = make(map[string]string, 1)
				}
				f.Samples[si].Labels["shard"] = sc.label
			}
			m, ok := merged[f.Name]
			if !ok {
				merged[f.Name] = f
				order = append(order, f.Name)
				continue
			}
			m.Samples = append(m.Samples, f.Samples...)
		}
	}
	fams := make([]*telemetry.Family, len(order))
	for i, name := range order {
		fams[i] = merged[name]
	}
	return telemetry.RenderFamilies(fams), nil
}
