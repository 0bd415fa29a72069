package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/trace"
)

// infogainSpec keeps the default 100-px geometry the scheduler's CI target
// was calibrated against.
func infogainSpec(seed uint64) *device.DoubleDotSpec {
	return &device.DoubleDotSpec{
		Pixels: 100, Seed: seed,
		Noise: noise.Params{WhiteSigma: 0.01, PinkAmp: 0.005},
	}
}

// TestInfoGainJob is the service happy path: the active scheduler runs as a
// first-class cacheable job kind and undercuts the fast raster's probe cost.
func TestInfoGainJob(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer svc.Close(ctx)

	res, err := svc.Run(ctx, Request{Kind: KindInfoGain, Sim: infogainSpec(11)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("infogain job failed: %+v", res)
	}
	fast, err := svc.Run(ctx, Request{Kind: KindFast, Sim: infogainSpec(11)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes >= fast.Probes/2 {
		t.Errorf("infogain spent %d probes, want < half of fast's %d", res.Probes, fast.Probes)
	}
	if res.TripleV1 == 0 && res.TripleV2 == 0 {
		t.Error("triple point not filled")
	}

	// The same request is a cache hit: canonical hashing covers the
	// infogain options.
	again, err := svc.Run(ctx, Request{Kind: KindInfoGain, Sim: infogainSpec(11)})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("identical infogain request missed the cache")
	}
	if math.Float64bits(again.A12) != math.Float64bits(res.A12) {
		t.Error("cached result differs")
	}
}

// TestInfoGainTraceReplay pins bit-identical replay: a recorded infogain
// job's trace re-executes the scheduler against the recorded samples and
// reproduces the matrix byte-for-byte with zero live probes.
func TestInfoGainTraceReplay(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 2, DataDir: dir, RecordTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Run(ctx, Request{Kind: KindInfoGain, Sim: infogainSpec(12)}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}

	paths, err := trace.List(dir + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("%d traces recorded, want 1", len(paths))
	}
	out, err := ReplayTrace(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.LiveProbes != 0 {
		t.Fatalf("%d live probes during replay", out.LiveProbes)
	}
	if !out.Match {
		t.Fatalf("replay mismatch: diffs=%v replayErr=%q", out.Diffs, out.ReplayErr)
	}
	if math.Float64bits(out.Reproduced.A12) != math.Float64bits(out.Recorded.A12) ||
		math.Float64bits(out.Reproduced.A21) != math.Float64bits(out.Recorded.A21) {
		t.Fatal("matrix not byte-identical under replay")
	}
}

// TestStatsMethodProbes: /v1/stats reports per-method probe totals, with
// chain jobs attributed to the ladder rung that actually probed.
func TestStatsMethodProbes(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer svc.Close(ctx)

	jobs := []Request{
		{Kind: KindFast, Sim: infogainSpec(13)},
		{Kind: KindRays, Sim: infogainSpec(13)},
		{Kind: KindAdaptive, Sim: infogainSpec(13)},
		{Kind: KindInfoGain, Sim: infogainSpec(13)},
		{Kind: KindChain,
			ChainSim: &device.ChainSpec{Dots: 3, Seed: 5, Noise: noise.Params{WhiteSigma: 0.01}},
			Chain:    &ChainOptions{Methods: chainx.InfoGainLadder()}},
	}
	for i, req := range jobs {
		res, err := svc.Run(ctx, req)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !res.Success {
			t.Fatalf("job %d failed: %+v", i, res)
		}
	}
	mp := svc.Stats().MethodProbes
	for _, m := range []string{"fast", "rays", "adaptive", "infogain"} {
		if mp[m] <= 0 {
			t.Errorf("methodProbes[%q] = %d, want > 0 (full map: %v)", m, mp[m], mp)
		}
	}
	// The chain ran an infogain-first ladder, so the infogain tally exceeds
	// the standalone job's count alone.
	if mp["infogain"] <= 0 {
		t.Errorf("chain infogain probes not attributed: %v", mp)
	}

	// The HTTP surface serves the same map.
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		MethodProbes map[string]int64 `json:"methodProbes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.MethodProbes["infogain"] != mp["infogain"] {
		t.Errorf("/v1/stats methodProbes = %v, want %v", body.MethodProbes, mp)
	}
}

// badInfoGainRequests carry an infoGain block outside its documented
// ranges, on an infogain job and on a chain job whose ladder runs the rung.
var badInfoGainRequests = []string{
	`{"kind":"infogain","sim":{"seed":7},"infoGain":{"maxProbes":-1}}`,
	`{"kind":"infogain","sim":{"seed":7},"infoGain":{"minProbes":-3}}`,
	`{"kind":"infogain","sim":{"seed":7},"infoGain":{"targetCI":-0.01}}`,
	`{"kind":"infogain","sim":{"seed":7},"infoGain":{"noiseEps":-0.1}}`,
	`{"kind":"infogain","sim":{"seed":7},"infoGain":{"noiseEps":0.5}}`,
	`{"kind":"chain","chainSim":{"dots":3,"seed":2},"chain":{"methods":["infogain","fast"]},"infoGain":{"maxProbes":-5}}`,
}

// hugeBudgetBatch once made vgxd pre-allocate a terabyte of probe history
// and die with "fatal error: runtime: out of memory".
const hugeBudgetBatch = `{"requests":[{"kind":"infogain","sim":{"seed":7},"infoGain":{"maxProbes":1099511627776}}]}`

func serveJSON(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// TestAPIInfoGainOptionRanges: an out-of-range infoGain block is a 400 on
// /v1/jobs and a per-item error in a batch; a huge but valid maxProbes
// runs, and the daemon keeps serving.
func TestAPIInfoGainOptionRanges(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	for _, body := range badInfoGainRequests {
		w := serveJSON(h, "POST", "/v1/jobs", body)
		var fail struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &fail); w.Code != http.StatusBadRequest || err != nil || fail.Error == "" {
			t.Fatalf("POST /v1/jobs %s = %d %q, want 400 with an error", body, w.Code, w.Body.String())
		}
		w = serveJSON(h, "POST", "/v1/batch", `{"requests":[`+body+`]}`)
		var batch struct {
			Items []BatchItem `json:"items"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &batch); w.Code != http.StatusOK || err != nil ||
			len(batch.Items) != 1 || batch.Items[0].Error == "" || batch.Items[0].Result != nil {
			t.Fatalf("POST /v1/batch [%s] = %d %q, want 200 with a per-item error", body, w.Code, w.Body.String())
		}
	}
	w := serveJSON(h, "POST", "/v1/batch", hugeBudgetBatch)
	var batch struct {
		Items []BatchItem `json:"items"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &batch); w.Code != http.StatusOK || err != nil ||
		len(batch.Items) != 1 || batch.Items[0].Result == nil {
		t.Fatalf("huge maxProbes batch = %d %q, want 200 with a result", w.Code, w.Body.String())
	}
	if w := serveJSON(h, "GET", "/v1/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz after the batch = %d %q", w.Code, w.Body.String())
	}
}
