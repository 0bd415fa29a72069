package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/service"
)

// raceEnabled is set in race builds, whose allocation counts differ.
var raceEnabled bool

// simBody is a one-request batch body: a fast extraction on a small
// simulated device.
func simBody(seed int) string {
	return fmt.Sprintf(`{"requests":[{"kind":"fast","sim":{"pixels":64,"seed":%d}}]}`, seed)
}

func simSpec(seed int) *device.DoubleDotSpec {
	return &device.DoubleDotSpec{Pixels: 64, Seed: uint64(seed)}
}

// simSeedOn returns the first seed from 100 up whose fast sim request
// the 2-shard ring places on shard i.
func simSeedOn(t *testing.T, i int) int {
	t.Helper()
	ring := NewRing(2)
	for seed := 100; seed < 200; seed++ {
		req := service.Request{Kind: service.KindFast, Sim: simSpec(seed)}
		key, err := req.RouteKey()
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key) == i {
			return seed
		}
	}
	t.Fatalf("no seed owned by shard %d", i)
	return 0
}

// postBatch sends body to POST /v1/batch through h and fails the test
// unless it answers want. A 200 reply must be exactly what Reply writes
// for its decoded items.
func postBatch(t *testing.T, h http.Handler, body string, want int) []service.BatchItem {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body)))
	if w.Code != want {
		t.Fatalf("POST /v1/batch %.80q = %d, want %d: %.200s", body, w.Code, want, w.Body.String())
	}
	if want != http.StatusOK {
		return nil
	}
	var reply struct {
		Items []service.BatchItem `json:"items"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatalf("decoding %.200q: %v", w.Body.String(), err)
	}
	again := httptest.NewRecorder()
	service.Reply(again, http.StatusOK, map[string]any{"items": reply.Items})
	if !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) {
		t.Fatalf("reply is not what Reply writes for its items:\n got %s\nwant %s", w.Body.String(), again.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	return reply.Items
}

// cacheCounts reads GET /v1/stats: cache misses, and hits plus coalesced
// joins.
func cacheCounts(t *testing.T, h http.Handler) (misses, served int64) {
	t.Helper()
	var st struct {
		Cache service.CacheStats `json:"cache"`
	}
	expectRoute(t, h, "GET", "/v1/stats", "", http.StatusOK, &st)
	return st.Cache.Misses, st.Cache.Hits + st.Cache.Coalesced
}

// routedTotal sums vgx_router_requests_total over its shard labels.
func routedTotal(c *Cluster) int64 {
	var n int64
	for _, v := range c.mRouted.Snapshot() {
		n += v
	}
	return n
}

// TestBatchRouteOnBothFrontDoors sends one script of POST /v1/batch
// bodies — misses, repeats, equivalent spellings, multi-shard batches,
// item errors, Table 1, chains, twin-first and session requests, trailing
// bytes, bad bodies and concurrent repeats — to a single service and to a
// 2-shard cluster. Every reply must answer the expected status and be
// byte-identical to Reply over its decoded items; the cache and router
// accounting after the script is pinned.
func TestBatchRouteOnBothFrontDoors(t *testing.T) {
	ctx := context.Background()
	cfg := service.Config{Workers: 2, ScrapeInterval: -1}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(ctx) })
	c, err := New(Config{Shards: 2, Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(ctx) })

	t.Run("service", func(t *testing.T) { runBatchScript(t, svc.Handler()) })
	t.Run("cluster", func(t *testing.T) {
		runBatchScript(t, c.Handler())
		if got := routedTotal(c); got != 137 {
			t.Errorf("vgx_router_requests_total = %d, want 137", got)
		}
	})
}

func runBatchScript(t *testing.T, h http.Handler) {
	on0, on1 := simSeedOn(t, 0), simSeedOn(t, 1)
	twoShards := fmt.Sprintf(`{"requests":[{"kind":"fast","sim":{"pixels":64,"seed":%d}},{"kind":"rays","sim":{"pixels":64,"seed":%d}}]}`, on0, on1)
	var sess service.SessionInfo
	expectRoute(t, h, "POST", "/v1/sessions", `{"spec":{"pixels":64,"seed":4}}`, http.StatusCreated, &sess)

	for _, tc := range []struct {
		name, body string
		want       int
		cached     []bool // per item; nil skips the check
		errs       []bool // per item: an error item
	}{
		{"miss", simBody(11), 200, []bool{false}, nil},
		{"repeat", simBody(11), 200, []bool{true}, nil},
		{"repeat again", simBody(11), 200, []bool{true}, nil},
		{"defaults spelled out", `{"requests":[{"kind":"fast","sim":{"pixels":64,"seed":11,"steepSlope":-8,"shallowSlope":-0.12,` +
			`"crossXFrac":0.68,"crossYFrac":0.63,"spanMV":32,"lambda1":0.47,"lambda2":0.45},"fast":{"diagonalProbes":10,"gaussSigmaFrac":0.25},` +
			`"rays":{"numRays":7}}]}`, 200, []bool{true}, nil},
		{"two shards", twoShards, 200, []bool{false, false}, nil},
		{"two shards repeat", twoShards, 200, []bool{true, true}, nil},
		{"two shards repeat again", twoShards, 200, []bool{true, true}, nil},
		{"hit and miss", `{"requests":[{"kind":"fast","sim":{"pixels":64,"seed":11}},{"kind":"fast","sim":{"pixels":64,"seed":13}}]}`, 200, []bool{true, false}, nil},
		{"item error", `{"requests":[{"kind":"nope","sim":{"seed":3}},{"kind":"fast","sim":{"pixels":64,"seed":11}}]}`, 200, nil, []bool{true, false}},
		{"item error repeat", `{"requests":[{"kind":"nope","sim":{"seed":3}},{"kind":"fast","sim":{"pixels":64,"seed":11}}]}`, 200, nil, []bool{true, false}},
		{"table1", `{"table1":true}`, 200, nil, nil},
		{"table1 repeat", `{"table1":true}`, 200, nil, nil},
		{"table1 repeat again", `{"table1":true}`, 200, nil, nil},
		{"table1 with a request", `{"requests":[{"kind":"fast","benchmark":6}],"table1":true}`, 200, nil, nil},
		{"chain", `{"requests":[{"kind":"chain","chainSim":{"dots":3,"pixels":64,"seed":5}}]}`, 200, []bool{false}, nil},
		{"chain repeat", `{"requests":[{"kind":"chain","chainSim":{"dots":3,"pixels":64,"seed":5}}]}`, 200, []bool{true}, nil},
		{"chain repeat again", `{"requests":[{"kind":"chain","chainSim":{"dots":3,"pixels":64,"seed":5}}]}`, 200, []bool{true}, nil},
		{"twin-first", `{"requests":[{"kind":"fast","sim":{"pixels":64,"seed":21,"surrogate":{"threshold":0.35}}}]}`, 200, []bool{false}, nil},
		{"twin-first repeat", `{"requests":[{"kind":"fast","sim":{"pixels":64,"seed":21,"surrogate":{"threshold":0.35}}}]}`, 200, []bool{false}, nil},
		{"session", `{"requests":[{"kind":"fast","session":"` + sess.ID + `"}]}`, 200, []bool{false}, nil},
		{"session repeat", `{"requests":[{"kind":"fast","session":"` + sess.ID + `"}]}`, 200, []bool{false}, nil},
		{"unknown session", `{"requests":[{"kind":"fast","session":"s0-sess-9999"}]}`, 200, nil, []bool{true}},
		{"trailing bytes", simBody(11) + ` {"junk"`, 200, []bool{true}, nil},
		{"trailing bytes repeat", simBody(11) + ` {"junk"`, 200, []bool{true}, nil},
		{"unknown field", `{"requests":[{"kind":"fast","benchmark":6}],"bogus":1}`, 400, nil, nil},
		{"unknown request field", `{"requests":[{"kind":"fast","benchmark":6,"bogus":1}]}`, 400, nil, nil},
		{"empty batch", `{"requests":[]}`, 400, nil, nil},
		{"no body", ``, 400, nil, nil},
		{"not JSON", `{"requests":`, 400, nil, nil},
		{"over 1 MiB", `{"requests":[{"kind":"` + strings.Repeat("x", 1<<20) + `"}]}`, 400, nil, nil},
	} {
		items := postBatch(t, h, tc.body, tc.want)
		for i, want := range tc.cached {
			if i >= len(items) || items[i].Result == nil || items[i].Result.Cached != want {
				t.Fatalf("%s: item %d = %+v, want cached=%v", tc.name, i, items, want)
			}
		}
		for i, want := range tc.errs {
			if i >= len(items) || (items[i].Error != "") != want {
				t.Fatalf("%s: item %d = %+v, want error=%v", tc.name, i, items, want)
			}
		}
	}

	// Eight concurrent identical bodies: one extraction, seven served,
	// and then eight concurrent repeats.
	for _, want := range []bool{false, true} {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var replies [][]service.BatchItem
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", strings.NewReader(simBody(17))))
				var reply struct {
					Items []service.BatchItem `json:"items"`
				}
				if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &reply) != nil || len(reply.Items) != 1 {
					t.Errorf("concurrent batch = %d %s", w.Code, w.Body.String())
					return
				}
				mu.Lock()
				replies = append(replies, reply.Items)
				mu.Unlock()
			}()
		}
		wg.Wait()
		cached := 0
		for _, items := range replies {
			if items[0].Result != nil && items[0].Result.Cached {
				cached++
			}
		}
		if want && cached != 8 {
			t.Fatalf("concurrent repeats: %d of 8 cached", cached)
		}
		if !want && cached != 7 {
			t.Fatalf("concurrent first requests: %d of 8 cached, want 7", cached)
		}
	}

	misses, served := cacheCounts(t, h)
	if misses != 30 || served != 102 {
		t.Errorf("cache misses %d, hits+coalesced %d; want 30, 102", misses, served)
	}
}

// TestBatchRepeatOnDownShard: a repeated body whose owner is killed
// answers the shard-down error on its item, and after the owner restarts
// from its journal it is a cache hit again.
func TestBatchRepeatOnDownShard(t *testing.T) {
	ctx := context.Background()
	c, _, err := Open(Config{Shards: 2, DataDir: t.TempDir(), Base: service.Config{Workers: 2, ScrapeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(ctx) })
	h := c.Handler()
	body := simBody(simSeedOn(t, 1))
	for _, want := range []bool{false, true, true} {
		if items := postBatch(t, h, body, http.StatusOK); items[0].Result == nil || items[0].Result.Cached != want {
			t.Fatalf("item %+v, want cached=%v", items[0], want)
		}
	}
	down := member(c, 1)
	c.KillShard(1)
	for i := 0; i < 2; i++ {
		if items := postBatch(t, h, body, http.StatusOK); !strings.Contains(items[0].Error, ErrShardDown.Error()) {
			t.Fatalf("item on a down shard = %+v, want %q", items[0], ErrShardDown)
		}
	}
	down.Close(ctx)
	if err := c.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	if items := postBatch(t, h, body, http.StatusOK); items[0].Result == nil || !items[0].Result.Cached {
		t.Fatalf("item after restart = %+v, want a cache hit", items[0])
	}
}

// TestBatchRepeatAfterEviction: with a 2-entry cache, a repeated body
// whose result was evicted extracts again and counts a miss, on both
// front doors.
func TestBatchRepeatAfterEviction(t *testing.T) {
	ctx := context.Background()
	cfg := service.Config{Workers: 2, ScrapeInterval: -1, CacheSize: 2}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(ctx) })
	c, err := New(Config{Shards: 2, Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(ctx) })
	for name, h := range map[string]http.Handler{"service": svc.Handler(), "cluster": c.Handler()} {
		t.Run(name, func(t *testing.T) {
			// Every seed lands on shard 0, so on the cluster one 2-entry
			// cache holds them all.
			var seeds []int
			for seed := 300; len(seeds) < 3; seed++ {
				req := service.Request{Kind: service.KindFast, Sim: simSpec(seed)}
				key, _ := req.RouteKey()
				if NewRing(2).Owner(key) == 0 {
					seeds = append(seeds, seed)
				}
			}
			a := simBody(seeds[0])
			for _, step := range []struct {
				body   string
				cached bool
			}{
				{a, false}, {a, true}, {a, true},
				{simBody(seeds[1]), false}, {simBody(seeds[2]), false},
				{a, false}, {a, true},
			} {
				if items := postBatch(t, h, step.body, http.StatusOK); items[0].Result == nil || items[0].Result.Cached != step.cached {
					t.Fatalf("item %+v, want cached=%v", items[0], step.cached)
				}
			}
			if misses, served := cacheCounts(t, h); misses != 4 || served != 3 {
				t.Fatalf("cache misses %d, hits+coalesced %d; want 4, 3", misses, served)
			}
		})
	}
}

// TestCachedBatchAllocs pins the allocations of a repeated, cached
// one-request POST /v1/batch through a 2-shard front door, httptest's
// request and recorder included.
func TestCachedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	h, body := newCachedBatch(t)
	allocs := testing.AllocsPerRun(200, func() { serveCachedBatch(t, h, body) })
	t.Logf("%.1f allocs per cached batch", allocs)
	if allocs > 35 {
		t.Fatalf("cached batch allocates %.1f objects, want at most 35", allocs)
	}
}
