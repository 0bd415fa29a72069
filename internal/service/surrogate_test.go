package service

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/trace"
)

// surrogateSpec builds a deterministic noisy double dot probing twin-first.
func surrogateSpec(seed uint64) *device.DoubleDotSpec {
	return &device.DoubleDotSpec{
		Pixels: 64, Seed: seed,
		Noise:     noise.Params{WhiteSigma: 0.01},
		Surrogate: &device.SurrogateSpec{Threshold: surrogate.DefaultThreshold},
	}
}

// TestSurrogateJobTrainsAndServes is the twin lifecycle on one service: the
// first job against a surrogate-enabled spec runs cold (everything
// escalates, the twin learns the raster), the second serves a meaningful
// share of its probes from the trained twin — and still extracts a matrix
// that passes the paper's accuracy criterion.
func TestSurrogateJobTrainsAndServes(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	req := Request{Kind: KindFast, Sim: surrogateSpec(11)}

	first, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Surrogate == nil {
		t.Fatal("surrogate job carried no surrogate report")
	}
	if !strings.HasPrefix(first.Surrogate.Key, "sim/") {
		t.Errorf("twin key %q, want sim/ prefix", first.Surrogate.Key)
	}
	if first.Surrogate.Escalations == 0 {
		t.Error("cold twin escalated nothing: the instrument was never probed")
	}
	if !first.Surrogate.Fitted {
		t.Error("twin not fitted after a full extraction's worth of training")
	}
	if !first.Success {
		t.Errorf("cold surrogate extraction failed the accuracy criterion: %+v", first)
	}

	second, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Error("surrogate job served from cache: twin state would be frozen")
	}
	if second.Surrogate.Hits == 0 {
		t.Error("trained twin served nothing on the repeat job")
	}
	if !second.Success {
		t.Errorf("twin-served extraction failed the accuracy criterion: %+v", second)
	}
	if second.Probes >= first.Probes {
		t.Errorf("twin saved no live probes: %d then %d", first.Probes, second.Probes)
	}

	st := svc.Stats()
	if st.Surrogate.Models != 1 || st.Surrogate.Hits == 0 {
		t.Errorf("stats surrogate block %+v, want 1 model with hits", st.Surrogate)
	}
}

// TestSurrogateThresholdZeroIdentical pins the composition property at the
// service level: a spec asking for threshold 0 runs every probe live and
// must produce the same result, field for field with bit-identical floats,
// as the same spec with no surrogate block at all.
func TestSurrogateThresholdZeroIdentical(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	plain := &device.DoubleDotSpec{Pixels: 64, Seed: 12, Noise: noise.Params{WhiteSigma: 0.01}}
	zeroed := *plain
	zeroed.Surrogate = &device.SurrogateSpec{Threshold: 0}

	a, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: plain})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: &zeroed})
	if err != nil {
		t.Fatal(err)
	}
	if b.Surrogate != nil {
		t.Error("threshold 0 still produced a surrogate report")
	}
	if diffs := CompareResults(b, a); len(diffs) != 0 {
		t.Errorf("threshold-0 result differs from plain: %v", diffs)
	}
}

// TestSurrogateTraceReplay records surrogate extractions — the traces hold
// only the escalated probes plus the twin snapshot — and re-executes each
// through ReplayTrace (the cmd/vgxreplay path): every replay must match bit
// for bit, including the warm job whose twin served a share of the probes.
func TestSurrogateTraceReplay(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 2, DataDir: dir, RecordTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	req := Request{Kind: KindFast, Sim: surrogateSpec(13)}
	var warmHits int
	for i := 0; i < 2; i++ {
		res, err := svc.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		warmHits = res.Surrogate.Hits
	}
	if warmHits == 0 {
		t.Fatal("warm job served nothing: the replay test would not cover twin serving")
	}

	paths, err := filepath.Glob(filepath.Join(dir, "traces", "*"+trace.Ext))
	if err != nil || len(paths) != 2 {
		t.Fatalf("want 2 traces, got %d (err %v)", len(paths), err)
	}
	var replayedHits int
	for _, path := range paths {
		out, err := ReplayTrace(path)
		if err != nil {
			t.Fatalf("replay %s: %v", path, err)
		}
		if !out.Match {
			t.Errorf("replay %s diverged: diffs %v replayErr %q", path, out.Diffs, out.ReplayErr)
		}
		if out.Reproduced.Surrogate == nil {
			t.Errorf("replay %s reproduced no surrogate report", path)
			continue
		}
		replayedHits += out.Reproduced.Surrogate.Hits
	}
	if replayedHits != warmHits {
		t.Errorf("replayed twin hits %d, live warm job had %d", replayedHits, warmHits)
	}
}

// TestSurrogateTwinsSurviveRestart abandons a durable service without
// shutdown after training a twin; the restarted service must warm-start the
// model from its journal record and serve from it on the very first job.
func TestSurrogateTwinsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	svc1, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindFast, Sim: surrogateSpec(14)}
	if _, err := svc1.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Killed: no Close, no flush.

	svc2, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	twins := svc2.Surrogates()
	if len(twins) != 1 || !twins[0].Fitted || twins[0].Cells == 0 {
		t.Fatalf("twin not warm-started: %+v", twins)
	}
	res, err := svc2.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Surrogate.Hits == 0 {
		t.Error("restored twin served nothing on the first post-restart job")
	}
	if !res.Success {
		t.Errorf("post-restart twin extraction failed the accuracy criterion: %+v", res)
	}
}

// TestSurrogateTrainFromTraces retrains twins offline: a plain (non-
// surrogate) job records a full live trace, TrainSurrogates feeds it into
// the device's twin — the key ignores the Surrogate knobs, so the trace
// trains the twin later surrogate jobs use — and the first surrogate job
// against the same device already serves from the model.
func TestSurrogateTrainFromTraces(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 2, DataDir: dir, RecordTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	plain := &device.DoubleDotSpec{Pixels: 64, Seed: 15, Noise: noise.Params{WhiteSigma: 0.01}}
	if _, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: plain}); err != nil {
		t.Fatal(err)
	}

	fed, err := svc.TrainSurrogates()
	if err != nil {
		t.Fatal(err)
	}
	if len(fed) != 1 {
		t.Fatalf("trained %d twins, want 1: %v", len(fed), fed)
	}
	for key, n := range fed {
		if !strings.HasPrefix(key, "sim/") || n == 0 {
			t.Fatalf("trained key %q with %d samples", key, n)
		}
	}

	withTwin := *plain
	withTwin.Surrogate = &device.SurrogateSpec{Threshold: surrogate.DefaultThreshold}
	res, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: &withTwin})
	if err != nil {
		t.Fatal(err)
	}
	if res.Surrogate.Hits == 0 {
		t.Error("trace-trained twin served nothing on its first surrogate job")
	}
	if !res.Success {
		t.Errorf("trace-trained extraction failed the accuracy criterion: %+v", res)
	}
}

// TestSurrogateTrainSkipsCraftedWindow: training sizes a twin by its
// trace's window, which no hash covers. A sim trace whose window is not the
// spec's is skipped — a 3 × 2^62 window panicked inside acquireTwin and
// left the device's twin locked — and the device's twin-first jobs still
// run.
func TestSurrogateTrainSkipsCraftedWindow(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dir, RecordTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	req, err := Request{Kind: KindFast, Sim: surrogateSpec(17)}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	huge := csd.Window{V1Max: 1, V2Max: 1, Cols: 3, Rows: 1 << 62}
	if _, err := trace.Write(filepath.Join(dir, "traces"), trace.Meta{Hash: "crafted", Request: reqJSON,
		Result: json.RawMessage(`{}`), Window: huge}, nil); err != nil {
		t.Fatal(err)
	}
	fed, err := svc.TrainSurrogates()
	if err != nil || len(fed) != 0 {
		t.Fatalf("trained %v (err %v), want nothing from the crafted trace", fed, err)
	}
	if _, err := svc.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
}

// TestSurrogateChainJob runs a surrogate-enabled chain job twice: every
// pair gets its own twin, the repeat job serves probes on each pair, and
// each recorded per-pair trace replays bit-identically through the same
// path cmd/vgxreplay uses.
func TestSurrogateChainJob(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 4, DataDir: dir, RecordTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	spec := chainSpec(4)
	spec.Surrogate = &device.SurrogateSpec{Threshold: surrogate.DefaultThreshold}
	req := Request{Kind: KindChain, ChainSim: spec}

	var warm *Result
	for i := 0; i < 2; i++ {
		if warm, err = svc.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if warm.Error != "" {
			t.Fatalf("chain job failed: %s", warm.Error)
		}
	}
	if len(warm.Chain.Surrogate) != 3 {
		t.Fatalf("want 3 per-pair twin reports, got %+v", warm.Chain.Surrogate)
	}
	for i, sr := range warm.Chain.Surrogate {
		if sr.Hits == 0 {
			t.Errorf("pair %d twin served nothing on the warm job: %+v", i, sr)
		}
		if !strings.HasPrefix(sr.Key, "chain/") {
			t.Errorf("pair %d twin key %q, want chain/ prefix", i, sr.Key)
		}
	}
	if !warm.Success {
		t.Errorf("warm chain extraction failed the accuracy criterion: %+v", warm)
	}

	paths, err := filepath.Glob(filepath.Join(dir, "traces", "*"+trace.Ext))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no chain pair traces recorded (err %v)", err)
	}
	for _, path := range paths {
		out, err := ReplayTrace(path)
		if err != nil {
			t.Fatalf("replay %s: %v", path, err)
		}
		if !out.Match {
			t.Errorf("replay %s diverged: diffs %v replayErr %q", path, out.Diffs, out.ReplayErr)
		}
	}
}

// TestSurrogateEndpoints exercises the HTTP surface: the twin listing, the
// train endpoint (rejected without tracing) and the stats block.
func TestSurrogateEndpoints(t *testing.T) {
	svc, srv := newTestServer(t)
	if _, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: surrogateSpec(16)}); err != nil {
		t.Fatal(err)
	}

	var listing struct {
		Twins []SurrogateInfo `json:"twins"`
	}
	doJSON(t, "GET", srv.URL+"/v1/surrogate", nil, http.StatusOK, &listing)
	if len(listing.Twins) != 1 || listing.Twins[0].Escalations == 0 {
		t.Fatalf("twin listing %+v, want one twin with escalations", listing.Twins)
	}

	var stats struct {
		Surrogate SurrogateStats `json:"surrogate"`
	}
	doJSON(t, "GET", srv.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.Surrogate.Models != 1 {
		t.Errorf("stats surrogate %+v, want 1 model", stats.Surrogate)
	}

	// No trace dir on this server: train must refuse, not no-op.
	resp, err := http.Post(srv.URL+"/v1/surrogate/train", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("train without traces: status %d, want 400", resp.StatusCode)
	}
}
