package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/telemetry"
)

// dropNondeterministic strips the metric families that legitimately vary
// run to run: wall-clock histograms (*_seconds) and the journal size
// (journaled records embed measured ComputeS).
func dropNondeterministic(name string) bool {
	return strings.HasSuffix(name, "_seconds") || name == "vgx_store_log_bytes"
}

// telemetryJobSet is the fixed sequential job mix the determinism test
// replays per worker count: two pipeline kinds, a cache hit, a chain
// fan-out and an infogain job — every instrumented subsystem fires.
func telemetryJobSet(t *testing.T, svc *Service) {
	t.Helper()
	ctx := context.Background()
	for _, req := range []Request{
		{Kind: KindFast, Sim: smallSim(1)},
		{Kind: KindBaseline, Sim: smallSim(1)},
		{Kind: KindFast, Sim: smallSim(1)}, // identical: cache hit
		chainReq(4),
		{Kind: KindInfoGain, Sim: infogainSpec(11)},
	} {
		if _, err := svc.Run(ctx, req); err != nil {
			t.Fatalf("%s job: %v", req.Kind, err)
		}
	}
}

// TestMetricsDeterministicAcrossWorkers is the telemetry determinism
// property: a fixed job set must leave byte-identical exposition text
// (wall-clock families filtered) regardless of worker-pool width. Run
// with -race this also hammers the lock-free metric paths.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		svc, err := New(Config{Workers: workers, CacheSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		telemetryJobSet(t, svc)
		got := telemetry.FilterFamilies(svc.Telemetry().Expose(), dropNondeterministic)
		if err := svc.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d: exposition differs:\n--- got ---\n%s--- want (workers=1) ---\n%s", workers, got, want)
		}
	}
}

// TestMetricNameLint walks every family a fully-wired durable service
// registers: vgx_-prefixed snake_case throughout, and at least one family
// from each instrumented subsystem.
func TestMetricNameLint(t *testing.T) {
	svc, err := New(Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	// Vec families materialise on first use; one instrumented request
	// brings the vgx_http_* pair into the registry.
	srv := httptest.NewServer(svc.InstrumentHTTP(svc.Handler()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	nameRE := regexp.MustCompile(`^vgx(_[a-z0-9]+)+$`)
	names := svc.Telemetry().Names()
	if len(names) == 0 {
		t.Fatal("no metric families registered")
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("metric %q fails the vgx_ snake_case lint", n)
		}
	}
	for _, prefix := range []string{
		"vgx_sched_", "vgx_service_", "vgx_fleet_",
		"vgx_surrogate_", "vgx_infogain_", "vgx_store_",
		"vgx_tsdb_", "vgx_alerts_", "vgx_http_",
	} {
		found := false
		for _, n := range names {
			if strings.HasPrefix(n, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* family registered; names: %v", prefix, names)
		}
	}
}

// saturatePool occupies every worker slot and fills the queue to depth,
// returning the release function.
func saturatePool(t *testing.T, svc *Service, queueDepth int) func() {
	t.Helper()
	block := make(chan struct{})
	n := svc.pool.Workers() + queueDepth
	for i := 0; i < n; i++ {
		svc.pool.Submit(context.Background(), func(context.Context) (any, error) {
			<-block
			return nil, nil
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.pool.Queued() < queueDepth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d, want %d", svc.pool.Queued(), queueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	return func() { close(block) }
}

// TestOverloadShedsButServesCache checks MaxQueueDepth: a saturated pool
// rejects new extractions with ErrOverloaded (counted in the shed
// metric), while identical cached requests are still served.
func TestOverloadShedsButServesCache(t *testing.T) {
	svc, err := New(Config{Workers: 1, CacheSize: 16, MaxQueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer svc.Close(ctx)

	// Populate the cache before saturating.
	if _, err := svc.Run(ctx, Request{Kind: KindFast, Sim: smallSim(1)}); err != nil {
		t.Fatal(err)
	}

	release := saturatePool(t, svc, 1)
	defer release()

	if _, err := svc.Run(ctx, Request{Kind: KindFast, Sim: smallSim(2)}); err != ErrOverloaded {
		t.Errorf("new extraction under overload: err = %v, want ErrOverloaded", err)
	}
	if _, err := svc.Submit(ctx, Request{Kind: KindFast, Sim: smallSim(3)}); err != ErrOverloaded {
		t.Errorf("async submission under overload: err = %v, want ErrOverloaded", err)
	}
	res, err := svc.Run(ctx, Request{Kind: KindFast, Sim: smallSim(1)})
	if err != nil || !res.Cached {
		t.Errorf("cached request under overload = (%+v, %v), want cache hit", res, err)
	}
	if shed := svc.metrics.shed.Value(); shed != 2 {
		t.Errorf("vgx_service_shed_total = %d, want 2", shed)
	}
}

// TestAPIOverload429 checks the HTTP mapping: a shed submission returns
// 429 with a Retry-After header.
func TestAPIOverload429(t *testing.T) {
	svc, err := New(Config{Workers: 1, CacheSize: 16, MaxQueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	release := saturatePool(t, svc, 1)
	defer release()

	body, _ := json.Marshal(Request{Kind: KindFast, Sim: smallSim(9)})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
}

// TestStatsShapeUnchanged locks the /v1/stats JSON contract now that the
// payload is assembled from the metric registry: same keys, same cache
// sub-shape, optional keys still omitted when empty.
func TestStatsShapeUnchanged(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	if _, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: smallSim(1)}); err != nil {
		t.Fatal(err)
	}

	b, err := json.Marshal(svc.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cache", "scheduler", "jobs", "sessions", "surrogate"} {
		if _, ok := top[key]; !ok {
			t.Errorf("stats missing key %q: %s", key, b)
		}
	}
	if _, ok := top["methodProbes"]; !ok {
		t.Errorf("stats missing methodProbes after a fast job: %s", b)
	}
	// No store/persistErrs keys without a data dir.
	for _, key := range []string{"store", "persistErrs"} {
		if _, ok := top[key]; ok {
			t.Errorf("stats key %q should be omitted when empty: %s", key, b)
		}
	}
	var cache map[string]json.RawMessage
	if err := json.Unmarshal(top["cache"], &cache); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"capacity", "entries", "hits", "misses", "coalesced", "evictions"} {
		if _, ok := cache[key]; !ok {
			t.Errorf("cache stats missing key %q: %s", key, top["cache"])
		}
	}
	st := svc.Stats()
	if st.Cache.Hits != 0 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want 0 hits / 1 miss / 1 entry", st.Cache)
	}
}

// TestSpanJournalRoundTrip checks a durable service journals one span
// tree per executed job, retrievable live (SpanTree) and offline
// (LoadSpans), with the recorded tree shape intact.
func TestSpanJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	fast, err := svc.Run(ctx, Request{Kind: KindFast, Sim: smallSim(1)})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := svc.Run(ctx, chainReq(4))
	if err != nil {
		t.Fatal(err)
	}

	hashes := svc.SpanHashes()
	if len(hashes) != 2 {
		t.Fatalf("SpanHashes = %v, want 2 trees", hashes)
	}
	if got := svc.metrics.spans.Value(); got != 2 {
		t.Errorf("vgx_service_spans_total = %d, want 2", got)
	}

	sp, ok := svc.SpanTree(chain.Hash)
	if !ok {
		t.Fatalf("no span tree for chain job %s", chain.Hash)
	}
	if sp.Name != "job" || sp.Attr("kind") != string(KindChain) {
		t.Errorf("chain root span = %q %v", sp.Name, sp.Attrs)
	}
	// The span carries the abbreviated request hash.
	if h := sp.Attr("hash"); !strings.HasPrefix(chain.Hash, h) || h == "" {
		t.Errorf("span hash attr %q is not a prefix of %s", h, chain.Hash)
	}
	if sp.VirtNS <= 0 {
		t.Errorf("chain job span has no virtual time: %+v", sp)
	}
	var sb strings.Builder
	sp.Render(&sb)
	out := sb.String()
	for _, want := range []string{"job wall=", "  pipeline wall=", "    pair wall=", "      probes wall="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered chain tree missing %q:\n%s", want, out)
		}
	}
	// 3 pairs for a 4-dot chain.
	if got := strings.Count(out, "    pair wall="); got != 3 {
		t.Errorf("chain tree has %d pair spans, want 3:\n%s", got, out)
	}

	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}

	recs, err := LoadSpans(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("LoadSpans = %d records, want 2", len(recs))
	}
	found := map[string]bool{}
	for _, r := range recs {
		found[r.Hash] = true
		if r.Span == nil || r.Span.Name != "job" {
			t.Errorf("record %s: bad span %+v", r.Hash, r.Span)
		}
	}
	if !found[fast.Hash] || !found[chain.Hash] {
		t.Errorf("LoadSpans hashes %v missing %s or %s", found, fast.Hash, chain.Hash)
	}
}

// TestReplayRecordsNoSpans checks the replay paths stay out of the live
// telemetry: re-executing the journal must not append new span trees or
// bump live job counters of the original service.
func TestReplayRecordsNoSpans(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Run(ctx, Request{Kind: KindFast, Sim: smallSim(1)}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}

	outs, err := ReplayJournal(ctx, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if !o.Match && !o.Skipped {
			t.Errorf("replay mismatch: %+v", o)
		}
	}
	recs, err := LoadSpans(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("replay added span trees: %d records, want 1", len(recs))
	}
}

// TestRequestIDEcho checks the request-ID middleware: a caller-sent
// X-Request-ID is echoed back, and absent one a deterministic req-N id
// is minted.
func TestRequestIDEcho(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-42" {
		t.Errorf("echoed id = %q, want caller-42", got)
	}

	resp2, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); !regexp.MustCompile(`^req-\d{6}$`).MatchString(got) {
		t.Errorf("minted id = %q, want req-NNNNNN", got)
	}
}

// TestRequestIDFormat pins minted request IDs to fmt's "req-%06d" and to
// one allocation each, also past 255, where fmt starts boxing the counter.
func TestRequestIDFormat(t *testing.T) {
	for _, n := range []int64{1, 255, 256, 999999, 1000000, 1234567890123456789} {
		if got, want := requestID(n), fmt.Sprintf("req-%06d", n); got != want {
			t.Errorf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = requestID(256) }); allocs != 1 {
		t.Errorf("requestID(256) allocates %.1f objects, want 1", allocs)
	}
}

// TestMetricsEndpoint checks GET /metrics serves the registry with the
// Prometheus content type and that the spans endpoints list journaled
// trees.
func TestMetricsEndpoint(t *testing.T) {
	svc, err := New(Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	res, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: smallSim(1)})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("content type = %q", ct)
	}
	fams, err := telemetry.Parse(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if len(s.Labels) == 0 {
				byName[s.Name] = s.Value
			}
			if s.Name == "vgx_service_jobs_total" && s.Labels["kind"] == "fast" {
				byName[s.Name] = s.Value
			}
		}
	}
	if byName["vgx_service_jobs_total"] != 1 {
		t.Errorf(`vgx_service_jobs_total{kind="fast"} = %v, want 1`, byName["vgx_service_jobs_total"])
	}
	if byName["vgx_sched_submitted_total"] < 1 {
		t.Errorf("vgx_sched_submitted_total = %v, want >= 1", byName["vgx_sched_submitted_total"])
	}

	var list struct {
		Hashes []string `json:"hashes"`
	}
	doJSON(t, "GET", srv.URL+"/v1/spans", nil, http.StatusOK, &list)
	if len(list.Hashes) != 1 || list.Hashes[0] != res.Hash {
		t.Errorf("/v1/spans = %v, want [%s]", list.Hashes, res.Hash)
	}
	var tree telemetry.Span
	doJSON(t, "GET", srv.URL+"/v1/spans/"+res.Hash, nil, http.StatusOK, &tree)
	if tree.Name != "job" {
		t.Errorf("/v1/spans/{hash} root = %q, want job", tree.Name)
	}
	doJSON(t, "GET", srv.URL+"/v1/spans/deadbeef", nil, http.StatusNotFound, nil)
}
