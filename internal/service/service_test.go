package service

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/baseline"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/evalx"
)

// smallSim is a quick noiseless device for cheap service tests.
func smallSim(seed uint64) *device.DoubleDotSpec {
	return &device.DoubleDotSpec{Pixels: 64, Seed: seed}
}

// TestRunSimJob checks a synchronous sim extraction end to end.
func TestRunSimJob(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: smallSim(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Scored || !res.Success {
		t.Fatalf("clean sim extraction should score successful, got %+v", res)
	}
	if res.Probes <= 0 || res.Probes >= 64*64 {
		t.Fatalf("probes = %d, want partial coverage", res.Probes)
	}
	if res.Cached {
		t.Fatal("first run must not be cached")
	}
	if res.Hash == "" {
		t.Fatal("result must carry the request hash")
	}

	// The identical request again: zero re-extraction.
	again, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: smallSim(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeat run should be served from cache")
	}
	if again.SteepSlope != res.SteepSlope || again.Probes != res.Probes {
		t.Fatal("cached result differs from original")
	}
}

// TestBatchTable1MatchesEvalx is the acceptance check: the full 12-benchmark
// × 2-method batch through the scheduler must reproduce evalx.RunTable1
// exactly, and a repeated identical batch must be served ≥90% from the
// result cache.
func TestBatchTable1MatchesEvalx(t *testing.T) {
	want, err := evalx.RunTable1(core.Config{}, baseline.Config{})
	if err != nil {
		t.Fatal(err)
	}

	svc, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs := Table1Requests()
	if len(reqs) != 2*SuiteSize {
		t.Fatalf("Table1Requests = %d requests, want %d", len(reqs), 2*SuiteSize)
	}
	items := svc.Batch(context.Background(), reqs)

	for i, item := range items {
		req := reqs[i]
		row := want[req.Benchmark-1]
		var wantRR *evalx.RunResult
		if req.Kind == KindFast {
			wantRR = row.Fast
		} else {
			wantRR = row.Baseline
		}
		if item.Error != "" {
			t.Errorf("req %d (%s/bench %d): unexpected transport error %s",
				i, req.Kind, req.Benchmark, item.Error)
			continue
		}
		got := item.Result
		if got.Error != "" {
			// Pipeline failures must agree with evalx's recorded FailReason
			// exactly — same pipelines, same replayed instruments.
			if wantRR.Success || got.Error != wantRR.FailReason {
				t.Errorf("req %d (%s/bench %d): pipeline error %q, evalx success=%v reason=%q",
					i, req.Kind, req.Benchmark, got.Error, wantRR.Success, wantRR.FailReason)
			}
			if got.Probes != wantRR.Probes {
				t.Errorf("req %d (%s/bench %d): failure probes %d != evalx %d",
					i, req.Kind, req.Benchmark, got.Probes, wantRR.Probes)
			}
			continue
		}
		if got.SteepSlope != wantRR.SteepSlope || got.ShallowSlope != wantRR.ShallowSlope {
			t.Errorf("req %d (%s/bench %d): slopes (%v, %v) != evalx (%v, %v)",
				i, req.Kind, req.Benchmark,
				got.SteepSlope, got.ShallowSlope, wantRR.SteepSlope, wantRR.ShallowSlope)
		}
		if got.Probes != wantRR.Probes {
			t.Errorf("req %d (%s/bench %d): probes %d != evalx %d",
				i, req.Kind, req.Benchmark, got.Probes, wantRR.Probes)
		}
		if got.Scored && got.Success != wantRR.Success {
			t.Errorf("req %d (%s/bench %d): success %v != evalx %v",
				i, req.Kind, req.Benchmark, got.Success, wantRR.Success)
		}
		if math.Abs(got.ExperimentS-wantRR.Virtual.Seconds()) > 1e-9 {
			t.Errorf("req %d (%s/bench %d): experiment time %v != evalx %v",
				i, req.Kind, req.Benchmark, got.ExperimentS, wantRR.Virtual.Seconds())
		}
	}

	// Repeat the identical batch: the common case under heavy traffic. At
	// least 90% must be served without re-extraction (here: all successful
	// requests, since failed extractions are deliberately not cached).
	before := svc.Stats().Cache
	items2 := svc.Batch(context.Background(), reqs)
	after := svc.Stats().Cache
	served := (after.Hits + after.Coalesced) - (before.Hits + before.Coalesced)
	if frac := float64(served) / float64(len(reqs)); frac < 0.90 {
		t.Fatalf("repeat batch served %d/%d = %.0f%% from cache, want >= 90%%",
			served, len(reqs), 100*frac)
	}
	for i := range items2 {
		if items2[i].Error == "" && !items2[i].Result.Cached {
			t.Errorf("repeat req %d not marked cached", i)
		}
	}
}

// TestSubmitLifecycle checks the async path: submit, wait, inspect.
func TestSubmitLifecycle(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jv, err := svc.Submit(context.Background(), Request{Kind: KindFast, Sim: smallSim(2)})
	if err != nil {
		t.Fatal(err)
	}
	if jv.ID == "" || (jv.Status != StatusQueued && jv.Status != StatusRunning) {
		t.Fatalf("submit view = %+v", jv)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done, err := svc.Wait(ctx, jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("final view = %+v, want done with result", done)
	}
	if got, ok := svc.Job(jv.ID); !ok || got.Status != StatusDone {
		t.Fatalf("Job lookup = %+v, %v", got, ok)
	}
	if list := svc.Jobs(); len(list) != 1 || list[0].ID != jv.ID {
		t.Fatalf("Jobs list = %+v", list)
	}
}

// TestMixedSyncAsyncSingleWorker is the deadlock regression: an async job
// and synchronous runs of the identical request on a one-worker service
// must all coalesce and finish — waiters must never sit on the only worker
// slot the flight owner needs.
func TestMixedSyncAsyncSingleWorker(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindFast, Sim: smallSim(20)}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	jv, err := svc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = svc.Run(ctx, req)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sync run %d: %v (deadlock would surface as a timeout here)", i, err)
		}
	}
	final, err := svc.Wait(ctx, jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("async job = %+v, want done", final)
	}
	if st := svc.Stats().Cache; st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 extraction", st)
	}
}

// TestJobHistoryBounded checks finished async job records are pruned once
// the history cap is exceeded.
func TestJobHistoryBounded(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc.jobHistory = 2
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < 5; i++ {
		jv, err := svc.Submit(ctx, Request{Kind: KindFast, Sim: smallSim(uint64(30 + i))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(ctx, jv.ID); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := len(svc.Jobs()); n <= 2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("job history = %d records, want <= 2", n)
		}
		time.Sleep(time.Millisecond)
	}
	// The newest job survives pruning and stays queryable.
	if _, ok := svc.Job("job-000005"); !ok {
		t.Fatal("newest job should be retained")
	}
	if _, ok := svc.Job("job-000001"); ok {
		t.Fatal("oldest job should have been pruned")
	}
}

// TestSubmitInvalid checks validation errors surface at submit time.
func TestSubmitInvalid(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), Request{Kind: "nope", Benchmark: 1}); err == nil {
		t.Fatal("want validation error")
	}
	if _, err := svc.Run(context.Background(), Request{Kind: KindFast}); err == nil {
		t.Fatal("want target error")
	}
}

// TestSessionJobs checks session-targeted jobs share one live instrument,
// bypass the cache, and accumulate probe statistics across jobs.
func TestSessionJobs(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.Registry().OpenSim(*smallSim(3))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindFast, Session: sess.ID()}
	first, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("session jobs must not be served from cache")
	}
	if first.Probes == 0 {
		t.Fatal("first session job should probe the device")
	}
	second, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("session jobs must not be served from cache")
	}
	// The sim instrument memoises probed pixels, so an identical extraction
	// on the same live device re-measures nothing new.
	if second.Probes != 0 {
		t.Fatalf("second session job probed %d new points, want 0 (memoised)", second.Probes)
	}
	info := sess.Info()
	if info.Jobs != 2 || info.Stats.UniqueProbes != first.Probes {
		t.Fatalf("session info = %+v, want 2 jobs and %d probes", info, first.Probes)
	}
	if !svc.Registry().CloseSession(sess.ID()) {
		t.Fatal("close failed")
	}
	if _, err := svc.Run(context.Background(), req); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("job on closed session: err = %v", err)
	}
}

// TestVerifyJob checks the verify pipeline reports an on-device check.
func TestVerifyJob(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run(context.Background(), Request{Kind: KindVerify, Sim: smallSim(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil {
		t.Fatal("verify job must carry a verification report")
	}
	if !res.Verify.OK {
		t.Fatalf("clean sim verification should pass, got %+v", res.Verify)
	}
}

// TestWindowFindJob checks the windowfind pipeline proposes a window.
func TestWindowFindJob(t *testing.T) {
	svc, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSim(5)
	spec.FillDefaults()
	res, err := svc.Run(context.Background(), Request{
		Kind: KindWindowFind,
		Sim:  spec,
		WindowFind: &WindowFindOptions{
			V1Min: 0, V1Max: spec.SpanMV, V2Min: 0, V2Max: spec.SpanMV, Pixels: 64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Window == nil {
		t.Fatal("windowfind must return a window")
	}
	if err := res.Window.Validate(); err != nil {
		t.Fatalf("proposed window invalid: %v", err)
	}
}
