package service

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/trace"
)

func chainSpec(dots int) *device.ChainSpec {
	return &device.ChainSpec{
		Dots:  dots,
		Noise: noise.Params{WhiteSigma: 0.01},
		Seed:  5,
	}
}

func chainReq(dots int) Request {
	return Request{Kind: KindChain, ChainSim: chainSpec(dots)}
}

// TestChainJobRuns is the chain job's happy path: the request executes
// through the planner on the service pool, every pair succeeds and scores,
// the composed chain lands on the result, and the repeat submission is a
// cache hit.
func TestChainJobRuns(t *testing.T) {
	svc, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	res, err := svc.Run(context.Background(), chainReq(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" {
		t.Fatalf("chain job failed: %s", res.Error)
	}
	if res.Chain == nil || res.Chain.Dots != 4 || len(res.Chain.Pairs) != 3 {
		t.Fatalf("chain report malformed: %+v", res.Chain)
	}
	if len(res.Chain.A12) != 3 || len(res.Chain.A21) != 3 {
		t.Fatalf("composed off-diagonals missing: %+v", res.Chain)
	}
	if !res.Scored || !res.Success {
		t.Errorf("scored=%v success=%v, want both (pairs: %+v)", res.Scored, res.Success, res.Chain.Pairs)
	}
	if res.Probes <= 0 || res.ExperimentS <= 0 {
		t.Errorf("missing cost accounting: %d probes, %v s", res.Probes, res.ExperimentS)
	}
	for i, p := range res.Chain.Pairs {
		if p.Method != chainx.MethodFast || p.Error != "" {
			t.Errorf("pair %d: method %q error %q", i, p.Method, p.Error)
		}
		if res.Chain.A12[i] != p.Matrix.A12() {
			t.Errorf("pair %d not composed", i)
		}
	}

	again, err := svc.Run(context.Background(), chainReq(4))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat chain submission missed the cache")
	}
	if again.Hash != res.Hash {
		t.Errorf("hash drifted: %s != %s", again.Hash, res.Hash)
	}
}

// TestChainDeterministicAcrossServiceWorkers: the cached chain result is a
// pure function of the request — two services with different worker counts
// produce byte-identical results.
func TestChainDeterministicAcrossServiceWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4} {
		svc, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Run(context.Background(), chainReq(5))
		if err != nil {
			t.Fatal(err)
		}
		res.ComputeS = 0 // the only wall-clock field
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("workers=%d: chain result differs:\n%s\n%s", workers, got, want)
		}
	}
}

// TestChainRequestValidation covers the chain-specific request shape rules.
func TestChainRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"chain kind without chainSim", Request{Kind: KindChain, Benchmark: 1}},
		{"chainSim on a fast job", Request{Kind: KindFast, ChainSim: chainSpec(4)}},
		{"two targets", Request{Kind: KindChain, ChainSim: chainSpec(4), Benchmark: 1}},
		{"one dot", Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 1}}},
		{"wrong window count", Request{Kind: KindChain, ChainSim: chainSpec(4),
			Chain: &ChainOptions{Windows: []csd.Window{{V1Max: 1, V2Max: 1, Cols: 2, Rows: 2}}}}},
		{"unknown method", Request{Kind: KindChain, ChainSim: chainSpec(4),
			Chain: &ChainOptions{Methods: []chainx.Method{"hough"}}}},
		{"negative budget", Request{Kind: KindChain, ChainSim: chainSpec(4),
			Chain: &ChainOptions{Budget: -1}}},
	}
	for _, c := range cases {
		if err := c.req.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestChainHashCoversWindows: the canonical hash covers the full expanded
// per-pair window list and ladder — defaults hash equal to their explicit
// form, any window change rehashes.
func TestChainHashCoversWindows(t *testing.T) {
	base := chainReq(4)
	h1, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Defaults made explicit: same hash.
	spec := *base.ChainSim
	spec.FillDefaults()
	w := spec.Window()
	explicit := chainReq(4)
	explicit.Chain = &ChainOptions{
		Windows: []csd.Window{w, w, w},
		Methods: chainx.DefaultLadder(),
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("explicit defaults hash differently from implied ones")
	}

	// One pair's window nudged: different hash.
	w2 := w
	w2.V1Max += 1
	nudged := chainReq(4)
	nudged.Chain = &ChainOptions{Windows: []csd.Window{w, w2, w}}
	h3, err := nudged.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("window change did not change the canonical hash")
	}

	// A different ladder: different hash.
	ladder := chainReq(4)
	ladder.Chain = &ChainOptions{Methods: []chainx.Method{chainx.MethodRays}}
	h4, err := ladder.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h1 {
		t.Error("ladder change did not change the canonical hash")
	}
}

// TestChainPersistence: a durable service journals the chain result as a
// cache entry plus one KindChainPair record per pair; a restarted service
// serves the chain from cache, and the pair records decode to the recorded
// pair results.
func TestChainPersistence(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(context.Background(), chainReq(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := svc2.Run(context.Background(), chainReq(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("restarted service re-extracted a journaled chain")
	}
	if diffs := CompareResults(res2, res); len(diffs) > 0 {
		t.Errorf("restored chain differs: %v", diffs)
	}
	if err := svc2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := st.Records(store.KindChainPair)
	if len(recs) != 3 {
		t.Fatalf("%d chain pair records, want 3", len(recs))
	}
	for i := range res.Chain.Pairs {
		data, ok := st.Get(store.KindChainPair, fmt.Sprintf("%s/%d", res.Hash, i))
		if !ok {
			t.Fatalf("pair %d record missing", i)
		}
		var pr chainx.PairResult
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if diffs := ComparePairResults(&pr, &res.Chain.Pairs[i]); len(diffs) > 0 {
			t.Errorf("pair %d journal record differs: %v", i, diffs)
		}
	}
}

// TestChainTraceReplay: with trace recording on, a chain job writes one
// per-pair trace, each of which replays bit-identically with zero live
// probes.
func TestChainTraceReplay(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 3, DataDir: dir, RecordTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(context.Background(), chainReq(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" {
		t.Fatalf("chain failed: %s", res.Error)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	paths, err := trace.List(dir + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("%d traces, want one per pair", len(paths))
	}
	seen := map[int]bool{}
	for _, p := range paths {
		out, err := ReplayTrace(p)
		if err != nil {
			t.Fatal(err)
		}
		if out.Pair == nil {
			t.Fatalf("%s: replay outcome has no pair index", p)
		}
		if !out.Match {
			t.Errorf("%s (pair %d): mismatch: %v %s", p, *out.Pair, out.Diffs, out.ReplayErr)
		}
		if out.LiveProbes != 0 {
			t.Errorf("%s: %d live probes during trace replay", p, out.LiveProbes)
		}
		seen[*out.Pair] = true
	}
	if len(seen) != 3 {
		t.Errorf("replayed pairs %v, want all 3", seen)
	}
}

// TestChainTraceReplayCarriesPairResult: a chain-pair trace's replay
// outcome carries the recorded and reproduced pair results, so vgxreplay
// reports each pair's probes (it printed probes=0 for every pair when the
// outcome carried neither).
func TestChainTraceReplayCarriesPairResult(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 2, DataDir: dir, RecordTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(context.Background(), chainReq(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	paths, err := trace.List(dir + "/traces")
	if err != nil || len(paths) != 2 {
		t.Fatalf("traces %v (err %v), want one per pair", paths, err)
	}
	for _, p := range paths {
		out, err := ReplayTrace(p)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Chain.Pairs[*out.Pair].Probes
		if want == 0 || out.RecordedProbes() != want {
			t.Errorf("pair %d: replay reports %d recorded probes, the job %d", *out.Pair, out.RecordedProbes(), want)
		}
		if out.RecordedPair == nil || out.ReproducedPair == nil || out.ReproducedPair.Probes != want {
			t.Errorf("pair %d: outcome pair results recorded %+v, reproduced %+v", *out.Pair, out.RecordedPair, out.ReproducedPair)
		}
	}
}

// TestChainJournalReplay: vgxreplay's journal mode re-executes chain
// entries against fresh instruments bit-identically.
func TestChainJournalReplay(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(context.Background(), chainReq(3)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs, err := ReplayJournal(context.Background(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("%d journal outcomes, want 1", len(outs))
	}
	if !outs[0].Match {
		t.Errorf("journal chain replay mismatched: %v", outs[0].Diffs)
	}
}
