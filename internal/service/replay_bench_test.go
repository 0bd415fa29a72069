package service

// The replay benchmark pair behind README's replay-vs-live speedup: the
// same fast extraction executed live against a fresh simulated
// instrument (BenchmarkExtractionLive) and re-executed from its recorded
// probe trace (BenchmarkExtractionReplay). Replay skips the physics and
// noise synthesis entirely — it serves recorded samples — so it bounds how
// fast the extraction algorithm itself runs when measurement is free.

import (
	"context"
	"testing"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/trace"
)

func benchReplaySpec() *device.DoubleDotSpec {
	return &device.DoubleDotSpec{
		Pixels: 100, Seed: 21,
		Noise: noise.Params{WhiteSigma: 0.01, PinkAmp: 0.012, PinkN: 12},
	}
}

func recordBenchTrace(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dir, RecordTraces: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Run(context.Background(), Request{Kind: KindFast, Sim: benchReplaySpec()}); err != nil {
		b.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		b.Fatal(err)
	}
	paths, err := trace.List(dir + "/traces")
	if err != nil || len(paths) != 1 {
		b.Fatalf("traces = %v, %v", paths, err)
	}
	return paths[0]
}

// BenchmarkExtractionLive runs the fast extraction against a live simulated
// instrument, the cost a cold-cache request pays.
func BenchmarkExtractionLive(b *testing.B) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Kind: KindFast, Sim: benchReplaySpec()}
	b.ReportAllocs()
	for b.Loop() {
		// A sim request is cacheable; bypass the cache by running the job
		// directly so every iteration pays the full extraction.
		nreq, err := req.Normalized()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.runJob(ctx, nreq, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractionReplay re-executes the same extraction from its
// recorded trace: the full pipeline runs, but every probe is served from
// the recording. The virtual-s/op metric is the instrument dwell time the
// recorded extraction cost — on hardware that is wall time a live run pays
// and a replay avoids entirely; against the in-process simulator (whose
// dwell is virtual) replay is not a wall-clock win, it is an offline one.
func BenchmarkExtractionReplay(b *testing.B) {
	path := recordBenchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	var experimentS float64
	for b.Loop() {
		out, err := ReplayTrace(path)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Match {
			b.Fatalf("replay mismatch: %v %s", out.Diffs, out.ReplayErr)
		}
		experimentS = out.Recorded.ExperimentS
	}
	b.ReportMetric(experimentS, "virtual-s/op")
}
