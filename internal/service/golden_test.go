package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/trace"
)

// goldenServiceDigest pins every result of the golden catalogue below,
// recorded on linux/amd64. Any change to what a pipeline measures, fits or
// reports changes it.
const goldenServiceDigest = "3295f993ad7ad7dc4123d5bdc1ee5ce71959666b5c68f06631e63ad36423560a"

// goldenCatalogue is the cacheable half of the golden catalogue: every
// single-method kind on three noise presets, the option blocks that tune
// each method, failing pipelines, chains under four ladders and budgets, and
// the Table-1 batch.
func goldenCatalogue() []Request {
	presets := []noise.Params{noise.PresetQuiet(), noise.PresetStandard(), noise.PresetUnstable()}
	var reqs []Request
	for _, p := range presets {
		for seed := uint64(1); seed <= 3; seed++ {
			spec := func() *device.DoubleDotSpec { return &device.DoubleDotSpec{Noise: p, Seed: seed} }
			for _, k := range []Kind{KindFast, KindAdaptive, KindRays, KindInfoGain, KindBaseline, KindVerify} {
				reqs = append(reqs, Request{Kind: k, Sim: spec()})
			}
			reqs = append(reqs, Request{Kind: KindWindowFind, Sim: spec(),
				WindowFind: &WindowFindOptions{V1Min: 0, V1Max: 50, V2Min: 0, V2Max: 50, Pixels: 64}})
		}
	}
	std := func(seed uint64) *device.DoubleDotSpec {
		return &device.DoubleDotSpec{Noise: noise.PresetStandard(), Seed: seed}
	}
	reqs = append(reqs,
		// Option blocks: each knob must reach its method.
		Request{Kind: KindFast, Sim: std(3), Fast: &FastOptions{DiagonalProbes: 14, GaussSigmaFrac: 0.3, NoShrink: true}},
		Request{Kind: KindFast, Sim: std(3), Fast: &FastOptions{DisableFilter: true, RowSweepOnly: true}},
		Request{Kind: KindAdaptive, Sim: std(3), Fast: &FastOptions{CoarseFactor: 2, DiagonalProbes: 8}},
		Request{Kind: KindBaseline, Sim: std(3), Baseline: &BaselineOptions{CannySigma: 1.2, CannyHighRatio: 0.25, NoRefine: true}},
		Request{Kind: KindRays, Sim: std(3), Rays: &RayOptions{NumRays: 32, DropSigma: 4}},
		Request{Kind: KindInfoGain, Sim: std(3), InfoGain: &InfoGainOptions{TargetCI: 0.02, MaxProbes: 300, NoiseEps: 0.05, MinProbes: 10}},
		Request{Kind: KindVerify, Sim: std(3), Verify: &VerifyOptions{MaxShiftFrac: 0.01}},
		// An unreachable CI target: the scheduler gives up and fails.
		Request{Kind: KindInfoGain, Sim: std(4), InfoGain: &InfoGainOptions{TargetCI: 1e-9, MaxProbes: 60}},
		// A knee near the window corner: extraction succeeds, the check's
		// scans cannot find a line.
		Request{Kind: KindVerify, Sim: &device.DoubleDotSpec{Pixels: 64, CrossXFrac: 0.9, CrossYFrac: 0.1,
			Noise: noise.PresetStandard(), Seed: 1}},
	)
	chain := func(seed uint64, co *ChainOptions) Request {
		return Request{Kind: KindChain, Chain: co,
			ChainSim: &device.ChainSpec{Dots: 4, Noise: noise.PresetStandard(), Seed: seed}}
	}
	reqs = append(reqs,
		chain(5, nil),
		chain(5, &ChainOptions{Methods: chainx.InfoGainLadder()}),
		chain(6, &ChainOptions{Methods: []chainx.Method{chainx.MethodRays, chainx.MethodFast}}),
		chain(7, &ChainOptions{Methods: []chainx.Method{chainx.MethodFast}, Budget: 2000}),
		Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 3, Noise: noise.PresetUnstable(), Seed: 8}},
	)
	return append(reqs, Table1Requests()...)
}

// goldenEncode is a result's canonical JSON without its two
// per-retrieval fields: wall-clock compute time and the cache flag.
func goldenEncode(t *testing.T, res *Result) []byte {
	t.Helper()
	c := *res
	c.ComputeS, c.Cached = 0, false
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenServiceDigest pins the service's outputs bit for bit over the
// golden catalogue, plus three twin-first fast jobs whose twin learns
// between them.
func TestGoldenServiceDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	svc, err := New(Config{Workers: 2, ScrapeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	ctx := context.Background()
	reqs := goldenCatalogue()
	h := sha256.New()
	results := make([]*Result, 0, len(reqs)+3)
	for i, item := range svc.Batch(ctx, reqs) {
		if item.Error != "" {
			t.Fatalf("request %d (%s): %s", i, reqs[i].Kind, item.Error)
		}
		results = append(results, item.Result)
	}
	twin := &device.DoubleDotSpec{Noise: noise.PresetQuiet(), Seed: 8,
		Surrogate: &device.SurrogateSpec{Threshold: surrogate.DefaultThreshold}}
	for i := 0; i < 3; i++ {
		res, err := svc.Run(ctx, Request{Kind: KindFast, Sim: twin})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	var failed, verifyFailed, denied int
	for _, res := range results {
		h.Write(goldenEncode(t, res))
		h.Write([]byte{'\n'})
		if res.Error != "" {
			failed++
		}
		if res.Kind == KindVerify && res.Error != "" && res.TripleV1 != 0 {
			verifyFailed++
		}
		if res.Chain != nil {
			denied += res.Chain.BudgetDenied
		}
	}
	if failed == 0 || verifyFailed == 0 || denied == 0 {
		t.Errorf("catalogue lost a case: %d failed results, %d verify failures after extraction, %d denied pairs", failed, verifyFailed, denied)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenServiceDigest {
		for i, res := range results {
			t.Logf("%d %s: %s", i, res.Kind, fmt.Sprintf("%x", sha256.Sum256(goldenEncode(t, res)))[:12])
		}
		t.Errorf("digest %s, want %s", got, goldenServiceDigest)
	}
}

// goldenTraceDigest pins every probe trace TestGoldenTraceDigest records,
// recorded on linux/amd64. Any change to a trace's header, meta fields or
// samples changes it.
const goldenTraceDigest = "4fe3e18f869ef4e018597afaff06da74b3265a7e055538fed6aa308e9292ec4d"

// TestGoldenTraceDigest pins trace bytes for one request of each probe-stack
// shape: a benchmark job, a plain sim job, two jobs on one session, a
// twin-first sim job twice, a 3-dot chain and a twin-first 3-dot chain twice.
// Every trace's meta and samples are digested with the result's wall-clock
// computeS zeroed, in the order of that masked content (file names hash the
// unmasked bytes).
func TestGoldenTraceDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	dir := t.TempDir()
	svc, err := New(Config{Workers: 2, DataDir: dir, RecordTraces: true, ScrapeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(req Request) {
		t.Helper()
		if _, err := svc.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	twinFirst := &device.SurrogateSpec{Threshold: surrogate.DefaultThreshold}
	chain := func(sur *device.SurrogateSpec) Request {
		return Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 3, Noise: noise.PresetStandard(), Seed: 22, Surrogate: sur}}
	}
	run(Request{Kind: KindFast, Benchmark: 3})
	run(Request{Kind: KindFast, Sim: &device.DoubleDotSpec{Noise: noise.PresetStandard(), Seed: 23}})
	sess, err := svc.Registry().OpenSim(device.DoubleDotSpec{Pixels: 64, Noise: noise.PresetStandard(), Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		run(Request{Kind: KindFast, Session: sess.ID()})
	}
	for i := 0; i < 2; i++ {
		run(Request{Kind: KindFast, Sim: &device.DoubleDotSpec{Pixels: 64, Noise: noise.PresetQuiet(), Seed: 21, Surrogate: twinFirst}})
	}
	run(chain(nil))
	for i := 0; i < 2; i++ {
		run(chain(twinFirst))
	}
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}

	paths, err := trace.List(filepath.Join(dir, "traces"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 1 + 2 + 2 + 2 + 2*2; len(paths) != want {
		t.Fatalf("%d traces recorded, want %d", len(paths), want)
	}
	var traces [][]byte
	var pairs, twins int
	for _, path := range paths {
		meta, samples, err := trace.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Pair != nil {
			pairs++
		}
		if meta.Surrogate != nil {
			twins++
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(meta.Result, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["computeS"]; ok {
			fields["computeS"] = json.RawMessage("0")
		}
		if meta.Result, err = json.Marshal(fields); err != nil {
			t.Fatal(err)
		}
		b, err := trace.Encode(meta, samples)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, b)
	}
	if pairs != 6 || twins != 6 {
		t.Errorf("%d pair traces and %d twin-first traces, want 6 and 6", pairs, twins)
	}
	sort.Slice(traces, func(i, j int) bool { return bytes.Compare(traces[i], traces[j]) < 0 })
	h := sha256.New()
	for _, b := range traces {
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTraceDigest {
		for i, b := range traces {
			t.Logf("%d: %x", i, sha256.Sum256(b))
		}
		t.Errorf("digest %s, want %s", got, goldenTraceDigest)
	}
}
