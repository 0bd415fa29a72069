package service

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
)

// coldKinds are the request kinds of the cold-mix workload: each a
// never-seen extraction on a freshly built device.
var coldKinds = []string{"fast", "verify", "adaptive", "rays", "infogain", "baseline", "chain", "twin"}

// coldRequest builds one request of a cold kind on a device whose scan
// window has the given pixel count: a double dot with a standard-noise
// sensor, a 6-dot chain, or a twin-first double dot.
func coldRequest(kind string, pixels int, seed uint64) Request {
	spec := &device.DoubleDotSpec{Pixels: pixels, Noise: noise.PresetStandard(), Seed: seed}
	switch kind {
	case "chain":
		return Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 6, Pixels: pixels, Noise: noise.PresetStandard(), Seed: seed}}
	case "twin":
		spec.Surrogate = &device.SurrogateSpec{Threshold: 0.35}
		return Request{Kind: KindFast, Sim: spec}
	}
	return Request{Kind: Kind(kind), Sim: spec}
}

// runCold executes req as a cold job on a fresh one-worker service — so
// no cache, twin or session carries over between calls, only whatever the
// process keeps for reuse — and returns the result's JSON with its wall
// time zeroed.
func runCold(t *testing.T, req Request) []byte {
	t.Helper()
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	nreq, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := nreq.Hash()
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.runJob(context.Background(), nreq, hash)
	if err != nil {
		t.Fatal(err)
	}
	res.ComputeS = 0
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wrapAndRelease builds spec's instrument, wraps its memo epoch (stamps
// then read 1 again, as a fresh store's first epoch does), rasters the
// window and releases the instrument.
func wrapAndRelease(t *testing.T, spec device.DoubleDotSpec) {
	t.Helper()
	inst, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 255; i++ {
		inst.Advance(time.Second)
	}
	if _, err := csd.Acquire(inst, win); err != nil {
		t.Fatal(err)
	}
	inst.Release()
}

// TestColdKindsReuseParity: every cold kind on spec A, then on a spec B
// with a smaller window, then on A again, in one process. Whatever buffers
// the first two jobs hand on, the third result — matrix, slopes, probes,
// dwell, every report field — equals the first bit for bit. Before the
// third job, rows stamped after an epoch wrap are handed on too.
func TestColdKindsReuseParity(t *testing.T) {
	for _, kind := range coldKinds {
		t.Run(kind, func(t *testing.T) {
			first := runCold(t, coldRequest(kind, 100, 41))
			runCold(t, coldRequest(kind, 64, 42))
			wrapAndRelease(t, device.DoubleDotSpec{Pixels: 100, Noise: noise.PresetStandard(), Seed: 41})
			third := runCold(t, coldRequest(kind, 100, 41))
			if !bytes.Equal(first, third) {
				t.Fatalf("%s on spec A after spec B differs from the first run:\nfirst %s\nthird %s", kind, first, third)
			}
		})
	}
}

// raceEnabled is set in race builds, where sync.Pool drops items at random
// and allocation figures differ.
var raceEnabled bool

// warmFastJobBytes bounds what one warm live fast job allocates, from
// instrument build to result, on BenchmarkExtractionLive's sim: 52 KB
// measured, where a job whose instrument kept its memo rows to itself
// allocated 243 KB.
const warmFastJobBytes = 64 << 10

// TestWarmFastJobBytes pins the bytes one cold fast job allocates once the
// process is warm: the memo rows, knee-fit scratch and point lists come
// from the jobs before it.
func TestWarmFastJobBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	nreq, err := Request{Kind: KindFast, Sim: benchReplaySpec()}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := svc.runJob(context.Background(), nreq, "warm"); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const jobs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / jobs
	if got > warmFastJobBytes {
		t.Fatalf("a warm fast job allocates %d bytes, want at most %d", got, warmFastJobBytes)
	}
	t.Logf("a warm fast job allocates %d bytes", got)
}
