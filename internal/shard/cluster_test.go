package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/alert"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/xrand"
)

// smallSpec is the cheap noiseless test device.
func smallSpec(seed uint64) *device.DoubleDotSpec {
	return &device.DoubleDotSpec{Pixels: 64, Seed: seed}
}

// simRequests builds n cheap cacheable requests cycling through kinds.
func simRequests(n int) []service.Request {
	kinds := []service.Kind{service.KindFast, service.KindRays, service.KindAdaptive}
	reqs := make([]service.Request, n)
	for i := range reqs {
		reqs[i] = service.Request{Kind: kinds[i%len(kinds)], Sim: smallSpec(uint64(100 + i))}
	}
	return reqs
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(context.Background()) })
	return c
}

// normalize strips the only non-deterministic fields — wall-clock compute
// time and the per-retrieval cache flag — and returns the result's JSON.
func normalize(t *testing.T, res *service.Result) string {
	t.Helper()
	if res == nil {
		t.Fatal("nil result")
	}
	cp := *res
	cp.ComputeS = 0 // the only wall-clock field
	cp.Cached = false
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterDeterminismAcrossShardCounts is the acceptance property: the
// same batch through 1 shard and through 8 shards returns byte-identical
// results in the same order — sharding changes where work runs, never
// what it computes. The scatter-gather merge back into request order is
// exercised by the same comparison.
func TestClusterDeterminismAcrossShardCounts(t *testing.T) {
	reqs := simRequests(12)
	c1 := newTestCluster(t, Config{Shards: 1, Base: service.Config{Workers: 2, ScrapeInterval: -1}})
	c8 := newTestCluster(t, Config{Shards: 8, Base: service.Config{Workers: 2, ScrapeInterval: -1}})

	ctx := context.Background()
	items1 := c1.Batch(ctx, reqs)
	items8 := c8.Batch(ctx, reqs)
	for i := range reqs {
		if items1[i].Error != "" || items8[i].Error != "" {
			t.Fatalf("item %d errored: 1-shard %q, 8-shard %q", i, items1[i].Error, items8[i].Error)
		}
		got1, got8 := normalize(t, items1[i].Result), normalize(t, items8[i].Result)
		if got1 != got8 {
			t.Errorf("item %d differs across shard counts:\n 1: %s\n 8: %s", i, got1, got8)
		}
	}

	// Routing is deterministic and spreads this workload: the 8-shard
	// cluster must have used more than one shard.
	used := make(map[int]bool)
	for _, req := range reqs {
		idx, err := c8.route(req)
		if err != nil {
			t.Fatal(err)
		}
		used[idx] = true
	}
	if len(used) < 2 {
		t.Fatalf("12 distinct requests all routed to %d shard(s)", len(used))
	}
}

// TestRouterCoalescing drives concurrent identical Cluster.Run calls
// through the real path: they all route to the owning shard, whose result
// cache runs the extraction once and serves every other caller from that
// flight or from the fresh entry, so every caller gets the same result.
func TestRouterCoalescing(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Base: service.Config{Workers: 2, ScrapeInterval: -1}})
	// runAll starts callers identical Runs at once and checks that every
	// one succeeds with the same result.
	runAll := func(req service.Request, callers int) {
		t.Helper()
		type outcome struct {
			res *service.Result
			err error
		}
		outs := make(chan outcome, callers)
		for i := 0; i < callers; i++ {
			go func() {
				res, err := c.Run(context.Background(), req)
				outs <- outcome{res, err}
			}()
		}
		var first string
		for i := 0; i < callers; i++ {
			o := <-outs
			if o.err != nil {
				t.Fatal(o.err)
			}
			if n := normalize(t, o.res); first == "" {
				first = n
			} else if n != first {
				t.Fatal("concurrent identical runs disagree")
			}
		}
	}

	req := service.Request{Kind: service.KindFast, Sim: smallSpec(7)}
	idx, err := c.route(req)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := c.shard(idx)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	before := svc.Stats().Cache
	runAll(req, callers)
	after := svc.Stats().Cache
	misses := after.Misses - before.Misses
	served := after.Hits - before.Hits + after.Coalesced - before.Coalesced
	if misses != 1 || served != callers-1 {
		t.Fatalf("owning shard cache: %d misses and %d hits+coalesced, want 1 and %d", misses, served, callers-1)
	}

	// Concurrent identical leaders race safely and agree.
	runAll(service.Request{Kind: service.KindRays, Sim: smallSpec(8)}, 6)
}

// TestSubmitRoutesByIDPrefix: async jobs land on the ring-owner shard,
// their minted IDs carry that shard, and polls route back statelessly.
func TestSubmitRoutesByIDPrefix(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 4, Base: service.Config{Workers: 2, ScrapeInterval: -1}})
	ctx := context.Background()
	for i, req := range simRequests(4) {
		want, err := c.route(req)
		if err != nil {
			t.Fatal(err)
		}
		jv, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		prefix := fmt.Sprintf("s%d-", want)
		if !strings.HasPrefix(jv.ID, prefix) {
			t.Fatalf("job %d: id %q does not carry owner prefix %q", i, jv.ID, prefix)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			got, ok := c.Job(jv.ID)
			if !ok {
				t.Fatalf("job %q not found via prefix routing", jv.ID)
			}
			if got.Status == service.StatusDone {
				break
			}
			if got.Status == service.StatusFailed || got.Status == service.StatusCancelled {
				t.Fatalf("job %q settled %s: %s", jv.ID, got.Status, got.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %q still %s", jv.ID, got.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestOverloadRetryAfterThroughRouter is the satellite regression: a
// shard's 429 must cross the front door as a 429 with its Retry-After
// hint — never remapped to a 5xx — and the typed service.ErrOverloaded
// must survive the routed Submit path for errors.Is checks.
func TestOverloadRetryAfterThroughRouter(t *testing.T) {
	// Find 8 distinct requests that all route to shard 0 of 2, so one
	// worker slot takes all the pressure. The first is a full-resolution
	// baseline raster of a noisy device, slow enough to hold that slot for
	// the whole test; the rest are small fast extractions.
	ring := NewRing(2)
	var reqs []service.Request
	for seed := uint64(500); len(reqs) < 8; seed++ {
		req := service.Request{Kind: service.KindFast, Sim: smallSpec(seed)}
		if len(reqs) == 0 {
			req = service.Request{Kind: service.KindBaseline,
				Sim: &device.DoubleDotSpec{Pixels: device.MaxPixels, Noise: noise.PresetStandard(), Seed: seed}}
		}
		key, err := req.RouteKey()
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key) == 0 {
			reqs = append(reqs, req)
		}
	}

	c := newTestCluster(t, Config{Shards: 2, Base: service.Config{
		Workers: 1, MaxQueueDepth: 1, ScrapeInterval: -1,
	}})
	h := c.Handler()

	accepted, shed := 0, 0
	for _, req := range reqs {
		// Submissions are async: give each a beat to reach the pool so
		// the queue depth is visible to the next admission check.
		time.Sleep(25 * time.Millisecond)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(body)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
			if got := w.Header().Get("Retry-After"); got != "1" {
				t.Fatalf("429 without Retry-After hint (got %q)", got)
			}
		default:
			t.Fatalf("unexpected status %d through the router: %s", w.Code, w.Body.String())
		}
		if w.Code >= 500 {
			t.Fatalf("overload leaked as %d", w.Code)
		}
	}
	if accepted == 0 || shed == 0 {
		t.Fatalf("want both accepted and shed submissions, got %d accepted / %d shed", accepted, shed)
	}

	// Typed path: the routed Submit returns the service's sentinel.
	var typedErr error
	for _, req := range reqs {
		if _, err := c.Submit(context.Background(), req); err != nil {
			typedErr = err
			break
		}
	}
	if typedErr == nil {
		t.Fatal("no overload error surfaced on direct Submit while the shard is saturated")
	}
	if !errors.Is(typedErr, service.ErrOverloaded) {
		t.Fatalf("overload error lost its type through the router: %v", typedErr)
	}
}

// pickOwnedRequest returns a request from reqs owned by shard idx, or
// fails.
func pickOwnedRequest(t *testing.T, c *Cluster, reqs []service.Request, idx int) service.Request {
	t.Helper()
	for _, req := range reqs {
		o, err := c.route(req)
		if err != nil {
			t.Fatal(err)
		}
		if o == idx {
			return req
		}
	}
	t.Fatalf("no request owned by shard %d", idx)
	return service.Request{}
}

// TestKillRestartShardE2E is the kill -9 satellite: one shard dies with
// no shutdown, the others keep serving, and a restart of the dead shard
// recovers its cache entries, fleet slice and firing alerts from its own
// journal alone.
func TestKillRestartShardE2E(t *testing.T) {
	dir := t.TempDir()
	// A rule that fires as soon as a shard holds a cache entry — a
	// deterministic alert to observe across the kill.
	cfg := Config{Shards: 3, DataDir: dir, Base: service.Config{
		Workers: 2, ScrapeInterval: -1,
		AlertRules: []alert.Rule{{
			Name: "cache-present", Severity: "warning",
			Expr: alert.Expr{Fn: "last", Series: "vgx_service_cache_entries"},
			Op:   ">", Threshold: 0,
		}},
	}}
	c, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(context.Background()) })
	ctx := context.Background()

	reqs := simRequests(6)
	want := make(map[int]string)
	for i, req := range reqs {
		res, err := c.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = normalize(t, res)
	}

	// Fleet devices with explicit IDs spread across shards.
	spec, err := fleet.ProfileSpec(fleet.ProfileStandard, xrand.DeriveSeed(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	deviceIDs := []string{"dev-alpha", "dev-beta", "dev-gamma", "dev-delta"}
	for _, id := range deviceIDs {
		svc, err := c.shard(c.ring.Owner(id))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Fleet().Register(fleet.DeviceConfig{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}

	// Tick through the router: every shard advances and scrapes, so the
	// cache-present rule evaluates (and fires) on shards with entries.
	h := c.Handler()
	r := httptest.NewRequest("POST", "/v1/fleet/tick", strings.NewReader(`{"advanceS":300,"ticks":3}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("tick: %d %s", w.Code, w.Body.String())
	}

	// The victim: the owner of request 0.
	victim, err := c.route(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	victimSvc, err := c.shard(victim)
	if err != nil {
		t.Fatal(err)
	}
	firingBefore := victimSvc.AlertEngine().Firing()
	if len(firingBefore) == 0 {
		t.Fatal("victim shard has no firing alert before the kill; the restart check would be vacuous")
	}
	var victimDevice string
	for _, id := range deviceIDs {
		if c.ring.Owner(id) == victim {
			victimDevice = id
			break
		}
	}

	if !c.KillShard(victim) {
		t.Fatal("KillShard refused")
	}
	if h := c.Health(); h.OK || len(h.Down) != 1 || h.Down[0] != victim {
		t.Fatalf("health after kill = %+v", h)
	}

	// Other shards serve on: a request they own is a cache hit.
	other := (victim + 1) % 3
	otherReq := pickOwnedRequest(t, c, reqs, other)
	res, err := c.Run(ctx, otherReq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("surviving shard lost its cache")
	}
	// The victim's slice is refused, typed.
	if _, err := c.Run(ctx, reqs[0]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("routed to dead shard: err = %v", err)
	}

	if err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	// Cache recovered: the victim's requests are hits with identical bytes.
	for i, req := range reqs {
		o, err := c.route(req)
		if err != nil || o != victim {
			continue
		}
		res, err := c.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("request %d not served from the restarted shard's journal", i)
		}
		if normalize(t, res) != want[i] {
			t.Fatalf("request %d changed across kill/restart", i)
		}
	}
	// Fleet slice recovered.
	restarted, err := c.shard(victim)
	if err != nil {
		t.Fatal(err)
	}
	if victimDevice != "" {
		if _, ok := restarted.Fleet().Device(victimDevice); !ok {
			t.Fatalf("fleet device %q lost across kill/restart", victimDevice)
		}
	}
	// Firing alerts recovered from the journaled transitions.
	firingAfter := restarted.AlertEngine().Firing()
	if strings.Join(firingAfter, ",") != strings.Join(firingBefore, ",") {
		t.Fatalf("firing set changed across kill/restart: %v -> %v", firingBefore, firingAfter)
	}
}

// TestMergedMetricsAndQuery: the router's /metrics is one parseable
// exposition with every sample shard-labelled (router families included),
// and /v1/query merges per-shard series under shard labels.
func TestMergedMetricsAndQuery(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Base: service.Config{Workers: 1, ScrapeInterval: -1}})
	ctx := context.Background()
	if _, err := c.Run(ctx, service.Request{Kind: service.KindFast, Sim: smallSpec(21)}); err != nil {
		t.Fatal(err)
	}
	c.each(func(_ int, svc *service.Service) { svc.ScrapeNow(100) })
	h := c.Handler()

	r := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	fams, err := telemetry.Parse(strings.NewReader(w.Body.String()))
	if err != nil {
		t.Fatalf("merged exposition does not re-parse: %v", err)
	}
	labels := make(map[string]bool)
	var routed bool
	for _, f := range fams {
		if f.Name == "vgx_router_requests_total" {
			routed = true
		}
		for _, s := range f.Samples {
			v, ok := s.Labels["shard"]
			if !ok {
				t.Fatalf("sample %s has no shard label", s.Name)
			}
			labels[v] = true
		}
	}
	if !routed {
		t.Fatal("router's own families missing from the merged exposition")
	}
	for _, wantLabel := range []string{"0", "1", "router"} {
		if !labels[wantLabel] {
			t.Fatalf("no samples labelled shard=%q (have %v)", wantLabel, labels)
		}
	}

	r = httptest.NewRequest("GET", "/v1/query?fn=last&series=vgx_service_cache_entries", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/query: %d %s", w.Code, w.Body.String())
	}
	var qres struct {
		Values []struct {
			Series string   `json:"series"`
			Value  *float64 `json:"value"`
		} `json:"values"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &qres); err != nil {
		t.Fatal(err)
	}
	if len(qres.Values) < 2 {
		t.Fatalf("merged query returned %d series, want one per shard", len(qres.Values))
	}
	for _, v := range qres.Values {
		if !strings.Contains(v.Series, `shard="`) {
			t.Fatalf("merged series %q lacks shard label", v.Series)
		}
	}
}

// TestRouterQueryRejectsNonFinite: a merged query result echoes its
// window and quantile, so the router answers a non-finite one with a 400
// and an error body, like a shard does.
func TestRouterQueryRejectsNonFinite(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Base: service.Config{Workers: 1, ScrapeInterval: -1}})
	for _, q := range []string{"fn=last&series=vgx_service_cache_entries&window=inf", "fn=last&series=vgx_service_cache_entries&q=nan"} {
		r := httptest.NewRequest("GET", "/v1/query?"+q, nil)
		w := httptest.NewRecorder()
		c.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("/v1/query?%s: %d %q, want 400", q, w.Code, w.Body.String())
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Fatalf("400 body %q is not a JSON error (%v)", w.Body.String(), err)
		}
	}
}

// TestRouterInfoGainOptionRanges: the router refuses an out-of-range
// infoGain block with a 400 on /v1/jobs and a per-item error in a batch,
// serves a huge but valid maxProbes, and keeps serving.
func TestRouterInfoGainOptionRanges(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Base: service.Config{Workers: 1, ScrapeInterval: -1}})
	h := c.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	for _, body := range []string{
		`{"kind":"infogain","sim":{"seed":7},"infoGain":{"maxProbes":-1}}`,
		`{"kind":"infogain","sim":{"seed":7},"infoGain":{"noiseEps":0.5}}`,
		`{"kind":"chain","chainSim":{"dots":3,"seed":2},"chain":{"methods":["infogain","fast"]},"infoGain":{"targetCI":-1}}`,
	} {
		w := serve("POST", "/v1/jobs", body)
		var fail struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &fail); w.Code != http.StatusBadRequest || err != nil || fail.Error == "" {
			t.Fatalf("POST /v1/jobs %s = %d %q, want 400 with an error", body, w.Code, w.Body.String())
		}
		w = serve("POST", "/v1/batch", `{"requests":[`+body+`]}`)
		var batch struct {
			Items []service.BatchItem `json:"items"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &batch); w.Code != http.StatusOK || err != nil ||
			len(batch.Items) != 1 || batch.Items[0].Error == "" || batch.Items[0].Result != nil {
			t.Fatalf("POST /v1/batch [%s] = %d %q, want 200 with a per-item error", body, w.Code, w.Body.String())
		}
	}
	w := serve("POST", "/v1/batch", `{"requests":[{"kind":"infogain","sim":{"seed":7},"infoGain":{"maxProbes":1099511627776}}]}`)
	var batch struct {
		Items []service.BatchItem `json:"items"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &batch); w.Code != http.StatusOK || err != nil ||
		len(batch.Items) != 1 || batch.Items[0].Result == nil {
		t.Fatalf("huge maxProbes batch = %d %q, want 200 with a result", w.Code, w.Body.String())
	}
	if w := serve("GET", "/v1/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz after the batch = %d %q", w.Code, w.Body.String())
	}
}

// The router rejects a tick schedule that would carry any shard's fleet
// clock past its limit before a single shard ticks, and keeps serving.
func TestRouterFleetTickRejectsClockOverflow(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Base: service.Config{Workers: 2, ScrapeInterval: -1}})
	for _, id := range []string{"dev-alpha", "dev-beta"} {
		svc, err := c.shard(c.ring.Owner(id))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Fleet().Register(fleet.DeviceConfig{ID: id, Spec: *smallSpec(5)}); err != nil {
			t.Fatal(err)
		}
	}
	h := c.Handler()
	tick := func(body string, want int) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/fleet/tick", strings.NewReader(body)))
		if w.Code != want {
			t.Fatalf("tick %s = %d, want %d: %s", body, w.Code, want, w.Body.String())
		}
	}
	clocks := func() []float64 {
		var out []float64
		c.each(func(_ int, svc *service.Service) { out = append(out, svc.Fleet().Now()) })
		return out
	}
	tick(`{"advanceS":300}`, http.StatusOK)
	for _, body := range []string{`{"advanceS":1e308}`, `{"advanceS":1e308}`, `{"advanceS":3e9,"ticks":2}`} {
		tick(body, http.StatusBadRequest)
		for i, now := range clocks() {
			if now != 300 {
				t.Fatalf("after rejected %s: shard %d clock = %v, want 300", body, i, now)
			}
		}
	}
	tick(`{"advanceS":300}`, http.StatusOK)
	for i, now := range clocks() {
		if now != 600 {
			t.Fatalf("shard %d clock = %v, want 600", i, now)
		}
	}
}
