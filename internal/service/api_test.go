package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/sched"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(Config{Workers: 2, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

// doJSON posts (or gets) JSON and decodes the response into out.
func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var raw bytes.Buffer
		_, _ = raw.ReadFrom(resp.Body)
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantCode, raw.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAPISubmitAndPoll drives the async endpoints end to end.
func TestAPISubmitAndPoll(t *testing.T) {
	_, srv := newTestServer(t)

	var jv JobView
	doJSON(t, "POST", srv.URL+"/v1/jobs",
		Request{Kind: KindFast, Sim: smallSim(10)}, http.StatusAccepted, &jv)
	if jv.ID == "" {
		t.Fatalf("no job id in %+v", jv)
	}

	deadline := time.Now().Add(time.Minute)
	for {
		doJSON(t, "GET", srv.URL+"/v1/jobs/"+jv.ID, nil, http.StatusOK, &jv)
		if jv.Status == StatusDone || jv.Status == StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", jv.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jv.Status != StatusDone || jv.Result == nil || !jv.Result.Success {
		t.Fatalf("final job view = %+v", jv)
	}

	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	doJSON(t, "GET", srv.URL+"/v1/jobs", nil, http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != jv.ID {
		t.Fatalf("job list = %+v", list.Jobs)
	}
}

// TestAPIBatchAndStats checks the batch endpoint deduplicates identical
// requests and the stats endpoint reports it.
func TestAPIBatchAndStats(t *testing.T) {
	_, srv := newTestServer(t)

	req := Request{Kind: KindFast, Sim: smallSim(11)}
	var batch struct {
		Items []BatchItem `json:"items"`
	}
	body := map[string]any{"requests": []Request{req, req, req, req}}
	doJSON(t, "POST", srv.URL+"/v1/batch", body, http.StatusOK, &batch)
	if len(batch.Items) != 4 {
		t.Fatalf("batch returned %d items, want 4", len(batch.Items))
	}
	fresh := 0
	for i, item := range batch.Items {
		if item.Error != "" || item.Result == nil {
			t.Fatalf("item %d = %+v", i, item)
		}
		if !item.Result.Cached {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d extractions ran for 4 identical requests, want 1", fresh)
	}

	var stats struct {
		Cache   CacheStats `json:"cache"`
		HitRate float64    `json:"hitRate"`
	}
	doJSON(t, "GET", srv.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.Cache.Misses != 1 || stats.Cache.Hits+stats.Cache.Coalesced != 3 {
		t.Fatalf("cache stats = %+v, want 1 miss and 3 served", stats.Cache)
	}
	if stats.HitRate != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", stats.HitRate)
	}
}

// TestAPISessions exercises the session endpoints and a session-targeted job.
func TestAPISessions(t *testing.T) {
	_, srv := newTestServer(t)

	var info SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions",
		map[string]any{"spec": smallSim(12)}, http.StatusCreated, &info)
	if info.ID == "" {
		t.Fatalf("no session id in %+v", info)
	}

	var batch struct {
		Items []BatchItem `json:"items"`
	}
	doJSON(t, "POST", srv.URL+"/v1/batch",
		map[string]any{"requests": []Request{{Kind: KindFast, Session: info.ID}}},
		http.StatusOK, &batch)
	if batch.Items[0].Error != "" || batch.Items[0].Result == nil {
		t.Fatalf("session job = %+v", batch.Items[0])
	}
	if batch.Items[0].Result.Cached {
		t.Fatal("session job must not be cached")
	}

	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	doJSON(t, "GET", srv.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].Jobs != 1 {
		t.Fatalf("session list = %+v", list.Sessions)
	}

	doJSON(t, "DELETE", srv.URL+"/v1/sessions/"+info.ID, nil, http.StatusOK, nil)
	doJSON(t, "DELETE", srv.URL+"/v1/sessions/"+info.ID, nil, http.StatusNotFound, nil)
}

// TestAPIBenchmarksAndHealth checks the static endpoints.
func TestAPIBenchmarksAndHealth(t *testing.T) {
	_, srv := newTestServer(t)
	var bl struct {
		Benchmarks []BenchmarkInfo `json:"benchmarks"`
	}
	doJSON(t, "GET", srv.URL+"/v1/benchmarks", nil, http.StatusOK, &bl)
	if len(bl.Benchmarks) != SuiteSize {
		t.Fatalf("listed %d benchmarks, want %d", len(bl.Benchmarks), SuiteSize)
	}
	for i, b := range bl.Benchmarks {
		if b.Index != i+1 || b.Size == 0 {
			t.Fatalf("benchmark %d = %+v", i, b)
		}
	}
	doJSON(t, "GET", srv.URL+"/healthz", nil, http.StatusOK, nil)
}

// TestAPIErrors checks malformed requests surface as 4xx JSON errors.
func TestAPIErrors(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"POST", "/v1/jobs", Request{Kind: "hough", Benchmark: 1}, http.StatusBadRequest},
		{"POST", "/v1/jobs", map[string]any{"kind": "fast", "nonsense": true}, http.StatusBadRequest},
		{"POST", "/v1/batch", map[string]any{}, http.StatusBadRequest},
		{"GET", "/v1/jobs/job-999999", nil, http.StatusNotFound},
		{"DELETE", "/v1/jobs/job-999999", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		var errBody struct {
			Error string `json:"error"`
		}
		doJSON(t, tc.method, srv.URL+tc.path, tc.body, tc.want, &errBody)
		if errBody.Error == "" {
			t.Errorf("%s %s: no error message in body", tc.method, tc.path)
		}
	}
}

// TestAPIBatchTable1Flag checks the one-call Table 1 batch shape (12
// benchmarks × 2 methods). Result correctness against evalx is covered by
// TestBatchTable1MatchesEvalx; here the concern is the HTTP contract.
func TestAPIBatchTable1Flag(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 batch over HTTP")
	}
	_, srv := newTestServer(t)
	var batch struct {
		Items []BatchItem `json:"items"`
	}
	doJSON(t, "POST", srv.URL+"/v1/batch", map[string]any{"table1": true}, http.StatusOK, &batch)
	if len(batch.Items) != 2*SuiteSize {
		t.Fatalf("table1 batch returned %d items, want %d", len(batch.Items), 2*SuiteSize)
	}
	for i, item := range batch.Items {
		if item.Error != "" || item.Result == nil {
			t.Fatalf("item %d = %+v", i, item)
		}
	}
	var n int
	for _, item := range batch.Items {
		if item.Result.Kind == KindFast {
			n++
		}
	}
	if n != SuiteSize {
		t.Fatalf("%d fast results, want %d", n, SuiteSize)
	}
}

// TestAPIJobCancel checks DELETE on a queued job cancels it. A one-worker
// service with a slow job in the slot guarantees the second job is queued.
func TestAPIJobCancel(t *testing.T) {
	svc, err := New(Config{Workers: 1, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Occupy the only worker slot with a real extraction (a full 200×200
	// baseline raster takes long enough for the cancel to land first).
	var first JobView
	doJSON(t, "POST", srv.URL+"/v1/jobs",
		Request{Kind: KindBaseline, Sim: &device.DoubleDotSpec{Pixels: 200, Seed: 99}},
		http.StatusAccepted, &first)

	var queued JobView
	doJSON(t, "POST", srv.URL+"/v1/jobs",
		Request{Kind: KindFast, Sim: smallSim(13)}, http.StatusAccepted, &queued)
	doJSON(t, "DELETE", srv.URL+"/v1/jobs/"+queued.ID, nil, http.StatusOK, nil)

	deadline := time.Now().Add(time.Minute)
	for {
		doJSON(t, "GET", srv.URL+"/v1/jobs/"+queued.ID, nil, http.StatusOK, &queued)
		if queued.Status == StatusCancelled || queued.Status == StatusDone || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The cancel raced the worker slot: either it won (cancelled) or the
	// slot freed first (done). Both are valid; stuck/failed is not.
	if queued.Status != StatusCancelled && queued.Status != StatusDone {
		t.Fatalf("queued job = %+v, want cancelled or done", queued)
	}
}

// TestAPIFleet drives the fleet endpoints end to end: register, tick the
// virtual clock until the device is calibrated, inspect status and history,
// force a recalibration.
func TestAPIFleet(t *testing.T) {
	_, srv := newTestServer(t)

	var dv fleet.DeviceView
	doJSON(t, "POST", srv.URL+"/v1/fleet/devices", fleet.DeviceConfig{
		ID:   "lab-a",
		Spec: device.DoubleDotSpec{Seed: 5},
	}, http.StatusCreated, &dv)
	if dv.ID != "lab-a" || dv.State != fleet.StateUncalibrated {
		t.Fatalf("registered view = %+v", dv)
	}

	// Duplicate registration is a 400.
	doJSON(t, "POST", srv.URL+"/v1/fleet/devices", fleet.DeviceConfig{
		ID:   "lab-a",
		Spec: device.DoubleDotSpec{Seed: 5},
	}, http.StatusBadRequest, nil)

	// One tick calibrates the fresh device.
	var tickResp struct {
		Now     float64            `json:"now"`
		Reports []fleet.TickReport `json:"reports"`
	}
	doJSON(t, "POST", srv.URL+"/v1/fleet/tick", map[string]any{"advanceS": 300.0, "ticks": 2},
		http.StatusOK, &tickResp)
	if tickResp.Now != 600 || len(tickResp.Reports) != 2 {
		t.Fatalf("tick response = %+v", tickResp)
	}

	var st fleet.Status
	doJSON(t, "GET", srv.URL+"/v1/fleet", nil, http.StatusOK, &st)
	if st.DeviceCount != 1 || st.Calibrations != 1 {
		t.Fatalf("fleet status = %+v", st)
	}
	if len(st.Devices) != 1 || !st.Devices[0].Calibrated {
		t.Fatalf("fleet devices = %+v", st.Devices)
	}

	doJSON(t, "GET", srv.URL+"/v1/fleet/devices/lab-a", nil, http.StatusOK, &dv)
	if !dv.Calibrated || dv.Calibrations != 1 {
		t.Fatalf("device view = %+v", dv)
	}
	doJSON(t, "GET", srv.URL+"/v1/fleet/devices/ghost", nil, http.StatusNotFound, nil)

	var ev fleet.Event
	doJSON(t, "POST", srv.URL+"/v1/fleet/devices/lab-a/recalibrate", nil, http.StatusOK, &ev)
	if ev.Kind != "force" {
		t.Fatalf("forced event = %+v", ev)
	}
	doJSON(t, "POST", srv.URL+"/v1/fleet/devices/ghost/recalibrate", nil, http.StatusNotFound, nil)

	var hist struct {
		Events []fleet.Event `json:"events"`
	}
	doJSON(t, "GET", srv.URL+"/v1/fleet/devices/lab-a/history", nil, http.StatusOK, &hist)
	if len(hist.Events) < 2 {
		t.Fatalf("history = %+v, want calibrate + force", hist.Events)
	}
	if hist.Events[0].Kind != "calibrate" {
		t.Errorf("first event kind = %q, want calibrate", hist.Events[0].Kind)
	}

	// Bad tick arguments surface as 400s.
	doJSON(t, "POST", srv.URL+"/v1/fleet/tick", map[string]any{"advanceS": 0.0},
		http.StatusBadRequest, nil)
}

// TestAPIHealthzAndClose covers the liveness endpoint through a graceful
// shutdown: healthy while serving, 503 + draining after Close, and Close
// leaves no sessions behind.
func TestAPIHealthzAndClose(t *testing.T) {
	svc, srv := newTestServer(t)
	if _, err := svc.Registry().OpenSim(device.DoubleDotSpec{}); err != nil {
		t.Fatal(err)
	}

	var h Health
	doJSON(t, "GET", srv.URL+"/v1/healthz", nil, http.StatusOK, &h)
	if !h.OK || h.Draining || h.Workers != 2 || h.Sessions != 1 {
		t.Fatalf("health = %+v", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	doJSON(t, "GET", srv.URL+"/v1/healthz", nil, http.StatusServiceUnavailable, &h)
	if h.OK || !h.Draining {
		t.Fatalf("post-close health = %+v", h)
	}
	if n := svc.Registry().SessionCount(); n != 0 {
		t.Errorf("sessions after Close = %d, want 0", n)
	}
	// New work is refused by the drained pool.
	if _, err := svc.Run(context.Background(), Request{Kind: KindFast, Benchmark: 1}); !errors.Is(err, sched.ErrClosed) {
		t.Errorf("post-Close Run err = %v, want sched.ErrClosed", err)
	}
}

// TestAPIUnencodableReplyIs500: a reply JSON cannot carry — here a NaN —
// is a 500 with an error body, not the intended status with an empty one.
func TestAPIUnencodableReplyIs500(t *testing.T) {
	w := httptest.NewRecorder()
	Reply(w, http.StatusOK, map[string]float64{"value": math.NaN()})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("NaN reply: %d %q, want 500", w.Code, w.Body.String())
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("500 body %q is not a JSON error (%v)", w.Body.String(), err)
	}
}

// TestAPIQueryRejectsNonFinite: strconv.ParseFloat accepts "inf" and
// "nan", but a query result echoes its window and quantile, so non-finite
// ones are a 400 with an error body.
func TestAPIQueryRejectsNonFinite(t *testing.T) {
	_, srv := newTestServer(t)
	for _, q := range []string{"fn=last&series=vgx_service_cache_entries&window=inf", "fn=last&series=vgx_service_cache_entries&q=nan"} {
		var body struct {
			Error string `json:"error"`
		}
		doJSON(t, "GET", srv.URL+"/v1/query?"+q, nil, http.StatusBadRequest, &body)
		if body.Error == "" {
			t.Fatalf("%s: 400 reply carries no error message", q)
		}
	}
}

// A tick that would carry the fleet clock past what the pair instruments'
// time.Duration clocks hold answers 400 before any state changes, so the
// fleet keeps serving afterwards. Two 1e308 ticks used to push the clock
// to +Inf, after which every tick failed to encode its reply.
func TestAPIFleetTickRejectsClockOverflow(t *testing.T) {
	svc, err := New(Config{Workers: 2, ScrapeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Fleet().Register(fleet.DeviceConfig{ID: "lab-a", Spec: device.DoubleDotSpec{Pixels: 64, Seed: 5}}); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	tick := func(body string, want int) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/fleet/tick", bytes.NewReader([]byte(body))))
		if w.Code != want {
			t.Fatalf("tick %s = %d, want %d: %s", body, w.Code, want, w.Body.String())
		}
	}
	tick(`{"advanceS":300}`, http.StatusOK)
	for _, body := range []string{
		`{"advanceS":1e308}`,
		`{"advanceS":1e308}`,
		`{"advanceS":1e10}`,
		`{"advanceS":3e9,"ticks":2}`, // each tick fits, the pair does not
	} {
		tick(body, http.StatusBadRequest)
		if now := svc.Fleet().Now(); now != 300 {
			t.Fatalf("after rejected %s: fleet clock = %v, want 300", body, now)
		}
	}
	tick(`{"advanceS":300}`, http.StatusOK)
	if now := svc.Fleet().Now(); now != 600 {
		t.Fatalf("fleet clock = %v, want 600", now)
	}
}
