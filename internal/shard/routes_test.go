package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/service"
)

// expectRoute sends one request through h, fails the test unless it
// answers want, and decodes a JSON body into out when out is non-nil.
func expectRoute(t *testing.T, h http.Handler, method, path, body string, want int, out any) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	if w.Code != want {
		t.Fatalf("%s %s = %d, want %d: %s", method, path, w.Code, want, w.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
		}
	}
}

// member returns shard i's service, or nil while the shard is down.
func member(c *Cluster, i int) *service.Service {
	var out *service.Service
	c.each(func(j int, svc *service.Service) {
		if j == i {
			out = svc
		}
	})
	return out
}

// ownedBy returns the first of candidates whose ring key, key(candidate),
// shard i owns.
func ownedBy(t *testing.T, c *Cluster, i int, candidates []string, key func(string) string) string {
	t.Helper()
	for _, cand := range candidates {
		if c.ring.Owner(key(cand)) == i {
			return cand
		}
	}
	t.Fatalf("no candidate owned by shard %d", i)
	return ""
}

// deviceIDs are fleet device IDs to place on the ring; a device ID is
// its own ring key.
func deviceIDs() []string {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%02d", i)
	}
	return ids
}

func deviceKey(id string) string { return id }

// routeConfig is the durable service template of the route tests:
// recorded traces let the twin-training route succeed.
func routeConfig(dir string) service.Config {
	return service.Config{Workers: 2, ScrapeInterval: -1, DataDir: dir, RecordTraces: true}
}

// TestEveryRouteOnBothFrontDoors sends each of the 26 routes of the HTTP
// API to a durable single service and to a durable 2-shard cluster,
// through their Handler()s, and checks the status code each answers. On
// the cluster it then kills one shard at a time: the routes it owns
// answer 503 while the rest of the cluster serves on.
func TestEveryRouteOnBothFrontDoors(t *testing.T) {
	ctx := context.Background()
	svc, err := service.New(routeConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(ctx) })
	// The cluster gives each shard its own directory under its DataDir.
	c, _, err := Open(Config{Shards: 2, DataDir: t.TempDir(), Base: routeConfig("")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(ctx) })

	t.Run("service", func(t *testing.T) { checkEveryRoute(t, svc.Handler(), false) })
	t.Run("cluster", func(t *testing.T) { checkEveryRoute(t, c.Handler(), true) })

	h := c.Handler()
	jobs := make([]string, 16)
	for i := range jobs {
		jobs[i] = fmt.Sprintf(`{"kind":"fast","sim":{"pixels":64,"seed":%d}}`, 200+i)
	}
	jobKey := func(body string) string {
		var req service.Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		key, err := req.RouteKey()
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	onShard0 := ownedBy(t, c, 0, deviceIDs(), deviceKey)
	onShard1 := ownedBy(t, c, 1, deviceIDs(), deviceKey)
	expectRoute(t, h, "POST", "/v1/fleet/devices", `{"id":"`+onShard1+`","spec":{"pixels":64,"seed":9}}`, http.StatusCreated, nil)

	// Shard 1 down: everything it owns answers 503, shard 0 serves on.
	down := member(c, 1)
	if !c.KillShard(1) {
		t.Fatal("KillShard(1) refused")
	}
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/jobs", ownedBy(t, c, 1, jobs, jobKey), http.StatusServiceUnavailable},
		{"POST", "/v1/jobs", ownedBy(t, c, 0, jobs, jobKey), http.StatusAccepted},
		{"GET", "/v1/fleet/devices/" + onShard1, "", http.StatusServiceUnavailable},
		{"GET", "/v1/fleet/devices/" + onShard1 + "/history", "", http.StatusServiceUnavailable},
		{"POST", "/v1/fleet/devices/" + onShard1 + "/recalibrate", "", http.StatusServiceUnavailable},
		{"POST", "/v1/fleet/devices", `{"id":"` + onShard1 + `","spec":{"pixels":64,"seed":9}}`, http.StatusServiceUnavailable},
		{"POST", "/v1/fleet/devices", `{"id":"` + onShard0 + `","spec":{"pixels":64,"seed":9}}`, http.StatusCreated},
		{"GET", "/debug/bundle?shard=1", "", http.StatusServiceUnavailable},
		{"GET", "/debug/bundle", "", http.StatusOK},
		{"GET", "/v1/query?shard=1&fn=last&series=vgx_service_cache_entries", "", http.StatusServiceUnavailable},
		{"GET", "/v1/query?shard=0&fn=last&series=vgx_service_cache_entries", "", http.StatusOK},
		{"GET", "/v1/query?fn=last&series=vgx_service_cache_entries", "", http.StatusOK},
		{"GET", "/v1/benchmarks", "", http.StatusOK},
		{"GET", "/v1/healthz", "", http.StatusServiceUnavailable},
		{"GET", "/healthz", "", http.StatusOK},
	} {
		expectRoute(t, h, tc.method, tc.path, tc.body, tc.want, nil)
	}
	down.Close(ctx)
	if err := c.RestartShard(1); err != nil {
		t.Fatal(err)
	}

	// Shard 0 down: the suite listing answers from any live shard; the
	// bundle defaults to shard 0.
	down = member(c, 0)
	if !c.KillShard(0) {
		t.Fatal("KillShard(0) refused")
	}
	expectRoute(t, h, "GET", "/v1/benchmarks", "", http.StatusOK, nil)
	expectRoute(t, h, "GET", "/debug/bundle", "", http.StatusServiceUnavailable, nil)
	expectRoute(t, h, "GET", "/debug/bundle?shard=1", "", http.StatusOK, nil)
	down.Close(ctx)
	if err := c.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	expectRoute(t, h, "GET", "/v1/healthz", "", http.StatusOK, nil)
}

// checkEveryRoute drives all 26 routes through h. The IDs a front door
// mints differ between a service and a cluster, so the job, session and
// span tree the table names are made through the routes first.
func checkEveryRoute(t *testing.T, h http.Handler, sharded bool) {
	var jv service.JobView
	expectRoute(t, h, "POST", "/v1/jobs", `{"kind":"fast","sim":{"pixels":64,"seed":3}}`, http.StatusAccepted, &jv)
	deadline := time.Now().Add(30 * time.Second)
	for jv.Status != service.StatusDone {
		if jv.Status == service.StatusFailed || jv.Status == service.StatusCancelled || time.Now().After(deadline) {
			t.Fatalf("job %s settled as %+v", jv.ID, jv)
		}
		time.Sleep(5 * time.Millisecond)
		expectRoute(t, h, "GET", "/v1/jobs/"+jv.ID, "", http.StatusOK, &jv)
	}
	var sess service.SessionInfo
	expectRoute(t, h, "POST", "/v1/sessions", `{"spec":{"pixels":64,"seed":4}}`, http.StatusCreated, &sess)
	expectRoute(t, h, "POST", "/v1/fleet/devices", `{"id":"dev-a","spec":{"pixels":64,"seed":5}}`, http.StatusCreated, nil)

	// shardedWant, when set, is the cluster's answer where it differs.
	for _, tc := range []struct {
		method, path, body string
		want, shardedWant  int
	}{
		{"POST", "/v1/jobs", `{"kind":"nope","sim":{"seed":3}}`, http.StatusBadRequest, 0},
		{"GET", "/v1/jobs", "", http.StatusOK, 0},
		{"GET", "/v1/jobs/" + jv.ID, "", http.StatusOK, 0},
		{"GET", "/v1/jobs/ghost", "", http.StatusNotFound, 0},
		{"DELETE", "/v1/jobs/" + jv.ID, "", http.StatusOK, 0},
		{"DELETE", "/v1/jobs/ghost", "", http.StatusNotFound, 0},
		{"POST", "/v1/batch", `{"requests":[{"kind":"fast","sim":{"pixels":64,"seed":3}}]}`, http.StatusOK, 0},
		{"POST", "/v1/batch", `{}`, http.StatusBadRequest, 0},
		{"GET", "/v1/benchmarks", "", http.StatusOK, 0},
		{"POST", "/v1/sessions", `{"spec":{"pixels":64},"bogus":1}`, http.StatusBadRequest, 0},
		{"GET", "/v1/sessions", "", http.StatusOK, 0},
		{"DELETE", "/v1/sessions/" + sess.ID, "", http.StatusOK, 0},
		{"DELETE", "/v1/sessions/" + sess.ID, "", http.StatusNotFound, 0},
		{"GET", "/v1/surrogate", "", http.StatusOK, 0},
		{"POST", "/v1/surrogate/train", "", http.StatusOK, 0},
		{"GET", "/v1/stats", "", http.StatusOK, 0},
		{"POST", "/v1/fleet/devices", `{"id":"dev-a","spec":{"pixels":64,"seed":5}}`, http.StatusBadRequest, 0},
		{"POST", "/v1/fleet/devices", `{"spec":{"pixels":64,"seed":6}}`, http.StatusCreated, http.StatusBadRequest},
		{"GET", "/v1/fleet", "", http.StatusOK, 0},
		{"POST", "/v1/fleet/tick", `{"advanceS":300}`, http.StatusOK, 0},
		{"POST", "/v1/fleet/tick", `{"advanceS":0}`, http.StatusBadRequest, 0},
		{"GET", "/v1/fleet/devices/dev-a", "", http.StatusOK, 0},
		{"GET", "/v1/fleet/devices/ghost", "", http.StatusNotFound, 0},
		{"GET", "/v1/fleet/devices/dev-a/history", "", http.StatusOK, 0},
		{"GET", "/v1/fleet/devices/dev-a/history?journal=1&limit=1", "", http.StatusOK, 0},
		{"GET", "/v1/fleet/devices/dev-a/history?limit=x", "", http.StatusBadRequest, 0},
		{"GET", "/v1/fleet/devices/ghost/history", "", http.StatusNotFound, 0},
		{"POST", "/v1/fleet/devices/dev-a/recalibrate", "", http.StatusOK, 0},
		{"POST", "/v1/fleet/devices/dev-a/recalibrate?pair=x", "", http.StatusBadRequest, 0},
		{"POST", "/v1/fleet/devices/ghost/recalibrate", "", http.StatusNotFound, 0},
		{"GET", "/v1/query?fn=last&series=vgx_service_cache_entries", "", http.StatusOK, 0},
		{"GET", "/v1/query?fn=last&series=vgx_service_cache_entries&window=x", "", http.StatusBadRequest, 0},
		{"GET", "/v1/query?fn=nope&series=vgx_service_cache_entries", "", http.StatusBadRequest, 0},
		// A single service has no shards to pick and ignores ?shard=.
		{"GET", "/v1/query?shard=0&fn=last&series=vgx_service_cache_entries", "", http.StatusOK, 0},
		{"GET", "/v1/query?shard=9&fn=last&series=vgx_service_cache_entries", "", http.StatusOK, http.StatusBadRequest},
		{"GET", "/v1/query?shard=x&fn=last&series=vgx_service_cache_entries", "", http.StatusOK, http.StatusBadRequest},
		{"GET", "/v1/alerts", "", http.StatusOK, 0},
		{"GET", "/debug/bundle", "", http.StatusOK, 0},
		{"GET", "/debug/bundle?shard=1", "", http.StatusOK, 0},
		{"GET", "/debug/bundle?shard=9", "", http.StatusOK, http.StatusBadRequest},
		{"GET", "/debug/bundle?shard=x", "", http.StatusOK, http.StatusBadRequest},
		{"GET", "/v1/spans", "", http.StatusOK, 0},
		{"GET", "/v1/spans/" + jv.Hash, "", http.StatusOK, 0},
		{"GET", "/v1/spans/deadbeef", "", http.StatusNotFound, 0},
		{"GET", "/metrics", "", http.StatusOK, 0},
		{"GET", "/v1/healthz", "", http.StatusOK, 0},
		{"GET", "/healthz", "", http.StatusOK, 0},
	} {
		want := tc.want
		if sharded && tc.shardedWant != 0 {
			want = tc.shardedWant
		}
		expectRoute(t, h, tc.method, tc.path, tc.body, want, nil)
	}
}

// TestClusterTickShardErrorsOfMixedTypes: two shards failing one tick
// with errors of different concrete types answer 400 with the lowest
// shard's error instead of crashing the process. Shard 0's service is
// closed (its pool refuses work with sched.ErrClosed) and the request's
// deadline has passed (shard 1 fails with context.DeadlineExceeded).
func TestClusterTickShardErrorsOfMixedTypes(t *testing.T) {
	c, _, err := Open(Config{Shards: 2, DataDir: t.TempDir(), Base: service.Config{Workers: 1, ScrapeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(context.Background()) })
	h := c.Handler()
	for shard := 0; shard < 2; shard++ {
		id := ownedBy(t, c, shard, deviceIDs(), deviceKey)
		expectRoute(t, h, "POST", "/v1/fleet/devices", `{"id":"`+id+`","spec":{"pixels":64,"seed":5}}`, http.StatusCreated, nil)
	}
	if err := member(c, 0).Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/fleet/tick", strings.NewReader(`{"advanceS":300}`)).WithContext(ctx))
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusBadRequest {
		t.Fatalf("tick = %d %q, want 400 with an error body", w.Code, w.Body.String())
	}
	if !strings.Contains(body.Error, sched.ErrClosed.Error()) {
		t.Fatalf("tick error = %q, want shard 0's %q", body.Error, sched.ErrClosed)
	}
}

// TestExpiredTickChangesNothing: a fleet tick whose request deadline has
// passed answers 400 and leaves the fleet as it was, on both front doors:
// every shard's clock stays at 0, and the next live tick replies exactly
// as the first tick of a twin fleet that never saw the failed one.
func TestExpiredTickChangesNothing(t *testing.T) {
	ctx := context.Background()
	cfg := service.Config{Workers: 2, ScrapeInterval: -1}
	const tick = `{"advanceS":300,"ticks":3}`
	for _, door := range []struct {
		name string
		open func(t *testing.T) (http.Handler, []*service.Service)
	}{
		{"service", func(t *testing.T) (http.Handler, []*service.Service) {
			svc, err := service.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { svc.Close(ctx) })
			return svc.Handler(), []*service.Service{svc}
		}},
		{"cluster", func(t *testing.T) (http.Handler, []*service.Service) {
			c, err := New(Config{Shards: 2, Base: cfg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close(ctx) })
			return c.Handler(), []*service.Service{member(c, 0), member(c, 1)}
		}},
	} {
		t.Run(door.name, func(t *testing.T) {
			h, members := door.open(t)
			twin, _ := door.open(t)
			ring := NewRing(2)
			for _, fleet := range []http.Handler{h, twin} {
				for shard := 0; shard < 2; shard++ {
					for _, id := range deviceIDs() {
						if ring.Owner(id) == shard {
							expectRoute(t, fleet, "POST", "/v1/fleet/devices", `{"id":"`+id+`","spec":{"pixels":64,"seed":5}}`, http.StatusCreated, nil)
							break
						}
					}
				}
			}

			expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
			defer cancel()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/fleet/tick", strings.NewReader(tick)).WithContext(expired))
			if w.Code != http.StatusBadRequest {
				t.Fatalf("expired tick = %d %s, want 400", w.Code, w.Body.String())
			}
			for i, svc := range members {
				if now := svc.Fleet().Now(); now != 0 {
					t.Fatalf("member %d clock at %v after a failed tick, want 0", i, now)
				}
			}

			live, first := httptest.NewRecorder(), httptest.NewRecorder()
			h.ServeHTTP(live, httptest.NewRequest("POST", "/v1/fleet/tick", strings.NewReader(tick)))
			twin.ServeHTTP(first, httptest.NewRequest("POST", "/v1/fleet/tick", strings.NewReader(tick)))
			if live.Code != http.StatusOK || live.Body.String() != first.Body.String() {
				t.Fatalf("tick after a failed one:\n%d %s\ntwin's first tick:\n%d %s", live.Code, live.Body.String(), first.Code, first.Body.String())
			}
		})
	}
}
