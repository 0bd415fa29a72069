package service

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fastvg/fastvg/internal/alert"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/tsdb"
)

// observability is the service's self-watching layer: the in-process
// tsdb scraping the metric registry, the alert engine evaluating the
// rule catalogue over it, and (optionally) the background loop driving
// both on wall time. The pieces share one mutex so a scrape and its
// alert evaluation are one atomic step — the property that makes the
// event sequence a pure function of the scrape schedule, which the
// worker-count determinism tests pin.
type observability struct {
	db     *tsdb.DB
	engine *alert.Engine // nil when alerts are disabled

	mu   sync.Mutex    // serialises scrape+eval pairs
	stop chan struct{} // closes the background loop; nil when none runs
	done chan struct{}
}

// initObs builds the tsdb and alert engine. Called from New after the
// metric registry and (optional) store exist; the background scrape
// loop starts here too unless the interval is negative.
func (s *Service) initObs(cfg Config) error {
	db := tsdb.New(s.metrics.reg, tsdb.Options{Capacity: cfg.TSDBPoints})
	o := &observability{db: db}
	if !cfg.DisableAlerts {
		rules := cfg.AlertRules
		if rules == nil {
			rules = alert.DefaultRules()
		}
		var onEvent func(alert.Event)
		if s.store != nil {
			onEvent = s.journalAlertEvent
		}
		eng, err := alert.New(db, rules, onEvent)
		if err != nil {
			return err
		}
		if s.store != nil {
			eng.Restore(loadAlertEvents(s.store))
		}
		o.engine = eng
	}
	s.obs = o

	// The DB watches itself: series/point occupancy and scrape count ride
	// the same registry the DB scrapes, so capacity planning for the tsdb
	// needs no second system. Values lag one scrape, by construction.
	s.metrics.reg.GaugeFunc("vgx_tsdb_series", "Time-series resident in the in-process tsdb.", func() float64 {
		return float64(db.Stats().Series)
	})
	s.metrics.reg.GaugeFunc("vgx_tsdb_points", "Points retained across all tsdb rings.", func() float64 {
		return float64(db.Stats().Points)
	})
	s.metrics.reg.GaugeFunc("vgx_tsdb_scrapes", "Registry scrapes taken into the tsdb.", func() float64 {
		return float64(db.Stats().Scrapes)
	})
	if o.engine != nil {
		s.metrics.reg.GaugeFunc("vgx_alerts_firing", "Alert rules currently in the firing state.", func() float64 {
			return float64(len(o.engine.Firing()))
		})
	}

	interval := cfg.ScrapeInterval
	if interval == 0 {
		interval = 10 * time.Second
	}
	if interval > 0 {
		o.stop = make(chan struct{})
		o.done = make(chan struct{})
		go s.scrapeLoop(interval)
	}
	return nil
}

// scrapeLoop drives wall-clock scrapes: timestamps are seconds since
// service start, so a daemon's tsdb axis starts at ~0 like the virtual
// clock's does. Stopped by Close before the journal closes.
func (s *Service) scrapeLoop(interval time.Duration) {
	defer close(s.obs.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.obs.stop:
			return
		case <-t.C:
			s.ScrapeNow(time.Since(s.started).Seconds())
		}
	}
}

// stopObs halts the background scrape loop and waits for an in-flight
// scrape to finish, so nothing journals after the store closes.
func (s *Service) stopObs() {
	if s.obs != nil && s.obs.stop != nil {
		close(s.obs.stop)
		<-s.obs.done
		s.obs.stop = nil
	}
}

// ScrapeNow takes one scrape at the given clock reading (seconds —
// wall-derived in the daemon loop, fleet.Now() on tick-driven scrapes)
// and evaluates the alert catalogue at the same instant, returning any
// firing/resolved transitions. The scrape+eval pair is atomic under the
// observability mutex.
func (s *Service) ScrapeNow(atS float64) []alert.Event {
	o := s.obs
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.db.Scrape(atS)
	if o.engine == nil {
		return nil
	}
	return o.engine.Eval(atS)
}

// TSDB exposes the in-process time-series database.
func (s *Service) TSDB() *tsdb.DB { return s.obs.db }

// AlertEngine exposes the alert engine; nil when Config.DisableAlerts.
func (s *Service) AlertEngine() *alert.Engine {
	if s.obs == nil {
		return nil
	}
	return s.obs.engine
}

// journalAlertEvent persists one alert transition as an audit record
// keyed by rule name. Best-effort like every persist: a failed write
// counts a persist error, the alert still fires in memory.
func (s *Service) journalAlertEvent(ev alert.Event) {
	b, err := json.Marshal(ev)
	if err == nil {
		err = s.store.Put(store.KindAlertEvent, ev.Rule, b)
	}
	if err != nil {
		s.metrics.persistErrs.Inc()
	}
}

// loadAlertEvents reads the journaled alert history in append order.
// Undecodable records (a future format) are skipped, not fatal.
func loadAlertEvents(st *store.Store) []alert.Event {
	recs := st.Records(store.KindAlertEvent)
	out := make([]alert.Event, 0, len(recs))
	for _, r := range recs {
		var ev alert.Event
		if json.Unmarshal(r.Data, &ev) != nil {
			continue
		}
		out = append(out, ev)
	}
	// Audit records replay per key; restore needs the global timeline.
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtS < out[j].AtS })
	return out
}

// LoadAlertHistory reads the journaled alert transitions from a data
// directory without starting a service — the vgxreplay -alerts path.
// Oldest first on the evaluation clock.
func LoadAlertHistory(dataDir string) ([]alert.Event, error) {
	st, err := store.Open(dataDir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return loadAlertEvents(st), nil
}

// RouteLabel classifies a request path into the closed route set used
// as the HTTP metric label — never the raw path, so label cardinality
// stays bounded no matter what callers throw at the daemon.
func RouteLabel(path string) string {
	switch path {
	case "/v1/jobs", "/v1/batch", "/v1/benchmarks", "/v1/sessions",
		"/v1/surrogate", "/v1/surrogate/train", "/v1/stats", "/v1/spans",
		"/v1/fleet", "/v1/fleet/devices", "/v1/fleet/tick",
		"/v1/query", "/v1/alerts", "/v1/healthz", "/healthz", "/metrics",
		"/debug/bundle":
		return path
	}
	switch {
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/sessions/"):
		return "/v1/sessions/{id}"
	case strings.HasPrefix(path, "/v1/spans/"):
		return "/v1/spans/{hash}"
	case strings.HasPrefix(path, "/v1/fleet/devices/"):
		switch {
		case strings.HasSuffix(path, "/history"):
			return "/v1/fleet/devices/{id}/history"
		case strings.HasSuffix(path, "/recalibrate"):
			return "/v1/fleet/devices/{id}/recalibrate"
		}
		return "/v1/fleet/devices/{id}"
	}
	return "other"
}

// InstrumentHTTP wraps a handler with the per-route request counter and
// latency histogram (vgx_http_requests_total / vgx_http_request_seconds,
// labelled by RouteLabel, never the raw path).
func (s *Service) InstrumentHTTP(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := RouteLabel(r.URL.Path)
		start := time.Now()
		next.ServeHTTP(w, r)
		s.metrics.httpRequests.With(route).Inc()
		s.metrics.httpSeconds.With(route).Observe(time.Since(start).Seconds())
	})
}
