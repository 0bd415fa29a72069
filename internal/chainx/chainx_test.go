package chainx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/method"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

func testSpec(dots int) device.ChainSpec {
	return device.ChainSpec{
		Dots:  dots,
		Noise: noise.Params{WhiteSigma: 0.01},
		Seed:  7,
	}
}

func extractSpec(t *testing.T, spec device.ChainSpec, workers int, cfg Config) *Result {
	t.Helper()
	src, err := NewSpecSource(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(workers)
	defer pool.Close(context.Background())
	res, err := Extract(context.Background(), pool, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExtractComposesChain is the happy path: every pair succeeds with the
// fast method, slopes score against the analytic truth, and the composed
// chain carries each pair's compensation terms.
func TestExtractComposesChain(t *testing.T) {
	spec := testSpec(4)
	res := extractSpec(t, spec, 2, Config{})
	if res.Chain == nil {
		t.Fatalf("no composed chain; pairs: %+v", res.Pairs)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("%d pairs, want 3", len(res.Pairs))
	}
	for i, p := range res.Pairs {
		if p.Error != "" {
			t.Fatalf("pair %d failed: %s", i, p.Error)
		}
		if p.Method != MethodFast {
			t.Errorf("pair %d method %q, want fast on first attempt", i, p.Method)
		}
		if !p.Scored || !p.Success {
			t.Errorf("pair %d scored=%v success=%v (Δsteep %.2f°, Δshallow %.2f°)",
				i, p.Scored, p.Success, p.SteepErrDeg, p.ShallowErrDeg)
		}
		if p.Probes <= 0 || p.ExperimentS <= 0 {
			t.Errorf("pair %d has no cost accounting: %d probes, %v s", i, p.Probes, p.ExperimentS)
		}
		if res.Chain.A12[i] != p.Matrix.A12() || res.Chain.A21[i] != p.Matrix.A21() {
			t.Errorf("pair %d not composed into the chain", i)
		}
	}
	if res.Probes <= 0 || res.ExperimentS <= 0 {
		t.Error("chain totals not accumulated")
	}
	if res.MakespanS <= 0 || res.MakespanS > res.ExperimentS {
		t.Errorf("makespan %v s outside (0, %v]", res.MakespanS, res.ExperimentS)
	}
}

// TestExtractBitIdenticalAcrossWorkers pins the determinism contract: the
// same spec extracts to byte-identical pair results and chain at any worker
// count, concurrent or sequential.
func TestExtractBitIdenticalAcrossWorkers(t *testing.T) {
	spec := testSpec(6)
	var want []byte
	var wantChain []float64
	for _, workers := range []int{1, 2, 5, 16} {
		res := extractSpec(t, spec, workers, Config{})
		if res.Chain == nil {
			t.Fatalf("workers=%d: no composed chain", workers)
		}
		got, err := json.Marshal(res.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		dense := append([]float64(nil), res.Chain.Dense()...)
		if want == nil {
			want, wantChain = got, dense
			continue
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: pair results differ from workers=1", workers)
		}
		for i := range dense {
			if dense[i] != wantChain[i] {
				t.Errorf("workers=%d: chain matrix bit-differs at %d", workers, i)
				break
			}
		}
	}
}

// failingRunner fails selected (pair, method) attempts with a deterministic
// pipeline error, delegating the rest to the real dispatch.
func failingRunner(fail map[string]bool) func(context.Context, Method, device.Instrument, csd.Window, *method.Options) (*method.Fit, error) {
	return func(ctx context.Context, m Method, inst device.Instrument, win csd.Window, opts *method.Options) (*method.Fit, error) {
		if fail[string(m)] {
			// Cost a probe so attempt accounting is visible.
			inst.GetCurrent(win.V1At(0), win.V2At(0))
			return nil, errors.New("synthetic pipeline failure")
		}
		return method.Run(ctx, m, inst, win, opts)
	}
}

// TestEscalationLadder: when the first ladder method fails deterministically
// the pair escalates to the next, records both attempts, and the chain still
// composes.
func TestEscalationLadder(t *testing.T) {
	spec := testSpec(3)
	src, err := NewSpecSource(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(2)
	defer pool.Close(context.Background())
	cfg := Config{run: failingRunner(map[string]bool{string(MethodFast): true})}
	res, err := Extract(context.Background(), pool, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain == nil {
		t.Fatalf("no chain despite escalation; pairs: %+v", res.Pairs)
	}
	for i, p := range res.Pairs {
		if p.Method != MethodAdaptive {
			t.Errorf("pair %d method %q, want adaptive after fast failed", i, p.Method)
		}
		if len(p.Attempts) != 2 {
			t.Fatalf("pair %d has %d attempts, want 2", i, len(p.Attempts))
		}
		if p.Attempts[0].Method != MethodFast || p.Attempts[0].Error == "" {
			t.Errorf("pair %d first attempt %+v, want failed fast", i, p.Attempts[0])
		}
		if p.Attempts[1].Method != MethodAdaptive || p.Attempts[1].Error != "" {
			t.Errorf("pair %d second attempt %+v, want successful adaptive", i, p.Attempts[1])
		}
		if p.Attempts[0].Probes <= 0 {
			t.Errorf("pair %d failed attempt cost not attributed", i)
		}
	}
}

// TestLadderExhausted: a pair whose every method fails is recorded as a
// deterministic failure; the chain is withheld but the other pairs' results
// stand.
func TestLadderExhausted(t *testing.T) {
	spec := testSpec(3)
	src, err := NewSpecSource(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(1)
	defer pool.Close(context.Background())
	cfg := Config{run: failingRunner(map[string]bool{
		string(MethodFast): true, string(MethodAdaptive): true, string(MethodRays): true,
	})}
	res, err := Extract(context.Background(), pool, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain != nil {
		t.Error("chain composed despite failed pairs")
	}
	if got := res.Failed(); len(got) != 2 {
		t.Fatalf("failed pairs %v, want all 2", got)
	}
	for _, p := range res.Pairs {
		if len(p.Attempts) != 3 || p.Error == "" {
			t.Errorf("pair %d: %d attempts, error %q; want full exhausted ladder", p.Pair, len(p.Attempts), p.Error)
		}
	}
}

// TestBudgetWaves: admission reserves the full ladder per pair, settles
// actuals at wave barriers, and reuses the freed headroom for deferred
// pairs; when no full ladder fits, the remaining pairs are denied
// deterministically in index order.
func TestBudgetWaves(t *testing.T) {
	spec := testSpec(4) // 3 pairs
	cfg := Config{
		Methods: []Method{MethodFast},
		Budget:  4600, // wave 1: two 1500-reserves fit, the third defers
	}
	res := extractSpec(t, spec, 3, cfg)
	// A fast pair extraction measures ≈ 1100 probes, so after wave 1 the
	// actuals (~2200) leave room for the deferred pair's 1500 reserve.
	if res.BudgetDenied != 0 {
		t.Fatalf("budgetDenied = %d, want 0 (wave 2 should admit the deferred pair)", res.BudgetDenied)
	}
	if res.Chain == nil {
		t.Fatalf("no chain; pairs: %+v", res.Pairs)
	}
	if res.Probes > cfg.Budget {
		t.Fatalf("budget overspent: %d > %d", res.Probes, cfg.Budget)
	}

	tight := Config{Methods: []Method{MethodFast}, Budget: 2000}
	res = extractSpec(t, spec, 3, tight)
	if res.BudgetDenied != 2 {
		t.Fatalf("budgetDenied = %d, want 2 under a one-pair budget", res.BudgetDenied)
	}
	if res.Pairs[0].Error != "" || res.Pairs[1].Error == "" || res.Pairs[2].Error == "" {
		t.Fatalf("denial not in index order: %+v", res.Pairs)
	}
	if res.Probes > tight.Budget {
		t.Fatalf("budget overspent: %d > %d", res.Probes, tight.Budget)
	}
}

// TestCancellationAborts: a cancelled context is a transport error, never a
// recorded pair outcome.
func TestCancellationAborts(t *testing.T) {
	spec := testSpec(3)
	src, err := NewSpecSource(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(1)
	defer pool.Close(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Extract(ctx, pool, src, Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMakespanScheduling pins the deterministic list-schedule model.
func TestMakespanScheduling(t *testing.T) {
	pairs := []PairResult{{ExperimentS: 4}, {ExperimentS: 2}, {ExperimentS: 3}, {ExperimentS: 1}}
	if got := makespan(pairs, 1); got != 10 {
		t.Errorf("1 worker makespan %v, want 10 (the sequential sum)", got)
	}
	// 2 channels, pair order: w0=4, w1=2, then 3 → w1 (5), 1 → w0 (5).
	if got := makespan(pairs, 2); got != 5 {
		t.Errorf("2 worker makespan %v, want 5", got)
	}
	if got := makespan(pairs, 8); got != 4 {
		t.Errorf("8 worker makespan %v, want 4 (the longest pair)", got)
	}
}

// TestSpecSourceWindows validates the per-pair window override.
func TestSpecSourceWindows(t *testing.T) {
	spec := testSpec(4)
	spec.FillDefaults()
	if _, err := NewSpecSource(spec, make([]csd.Window, 2)); err == nil {
		t.Error("accepted wrong window count")
	}
	w := spec.Window()
	src, err := NewSpecSource(spec, []csd.Window{w, w, w})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(src.Windows()); got != 3 {
		t.Fatalf("%d windows, want 3", got)
	}
}

// TestUnknownMethodRejected ensures ladder validation happens before any
// probing.
func TestUnknownMethodRejected(t *testing.T) {
	spec := testSpec(3)
	src, err := NewSpecSource(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(1)
	defer pool.Close(context.Background())
	if _, err := Extract(context.Background(), pool, src, Config{Methods: []Method{"hough"}}); err == nil {
		t.Error("accepted unknown method")
	}
}

// TestChainDenseCacheInvalidation: the planner composes through SetPair, so
// the cached dense form must refresh.
func TestChainDenseCacheInvalidation(t *testing.T) {
	c, err := virtualgate.NewChain(3)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Dense()
	m, err := virtualgate.FromSlopes(-8, -0.12)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetPair(1, m); err != nil {
		t.Fatal(err)
	}
	d := c.Dense()
	if d[1*3+2] != m.A12() || d[2*3+1] != m.A21() {
		t.Error("Dense served a stale cache after SetPair")
	}
}

func BenchmarkChainExtract(b *testing.B) {
	for _, dots := range []int{4, 8, 16} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"conc", 8}} {
			b.Run(fmt.Sprintf("dots-%d-%s", dots, mode.name), func(b *testing.B) {
				spec := testSpec(dots)
				src, err := NewSpecSource(spec, nil)
				if err != nil {
					b.Fatal(err)
				}
				var dwell, makespanS, probes float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pool := sched.New(mode.workers)
					res, err := Extract(context.Background(), pool, src, Config{})
					pool.Close(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					if res.Chain == nil {
						b.Fatalf("chain failed: %+v", res.Failed())
					}
					dwell += res.ExperimentS
					makespanS += res.MakespanS
					probes += float64(res.Probes)
				}
				n := float64(b.N)
				b.ReportMetric(dwell/n, "dwell-s/op")
				b.ReportMetric(makespanS/n, "makespan-s/op")
				b.ReportMetric(probes/(n*float64(dots-1)), "probes/pair")
			})
		}
	}
}
