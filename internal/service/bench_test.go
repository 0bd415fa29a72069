package service

import (
	"context"
	"testing"

	"github.com/fastvg/fastvg/internal/device"
)

// benchRequests builds a batch of fast-extraction jobs over distinct sim
// devices; vary controls whether each iteration's batch is unique (cache
// cold) or identical (cache hot).
func benchRequests(n int, round uint64) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{
			Kind: KindFast,
			Sim:  &device.DoubleDotSpec{Pixels: 64, Seed: 1 + uint64(i) + round*uint64(n)},
		})
	}
	return reqs
}

// BenchmarkBatchUncached measures serving-path throughput when every request
// in every batch is new work: each extraction runs on the worker pool.
func BenchmarkBatchUncached(b *testing.B) {
	svc, err := New(Config{Workers: 4, CacheSize: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const batchSize = 8
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		items := svc.Batch(ctx, benchRequests(batchSize, uint64(i)))
		for _, item := range items {
			if item.Error != "" {
				b.Fatal(item.Error)
			}
		}
	}
	st := svc.Stats().Cache
	b.ReportMetric(st.HitRate(), "cache-hit-rate")
}

// BenchmarkBatchCached measures the dedup fast path: the identical batch is
// resubmitted every iteration and served from the result cache, the common
// case under heavy repeated traffic.
func BenchmarkBatchCached(b *testing.B) {
	svc, err := New(Config{Workers: 4, CacheSize: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const batchSize = 8
	reqs := benchRequests(batchSize, 0)
	// Warm the cache outside the measured region.
	for _, item := range svc.Batch(ctx, reqs) {
		if item.Error != "" {
			b.Fatal(item.Error)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		items := svc.Batch(ctx, reqs)
		for _, item := range items {
			if item.Error != "" || !item.Result.Cached {
				b.Fatalf("expected cached result, got %+v", item)
			}
		}
	}
	st := svc.Stats().Cache
	b.ReportMetric(st.HitRate(), "cache-hit-rate")
}

// BenchmarkColdKinds prices one never-seen request of each cold-mix kind
// through Service.Batch on a one-worker service: B/op and allocs/op are
// what one cold job of that kind allocates, from request to cached
// result. Twin-first requests cycle four devices, as a cold-mix client's
// do, so their twins learn across iterations.
func BenchmarkColdKinds(b *testing.B) {
	for _, kind := range coldKinds {
		b.Run(kind, func(b *testing.B) {
			ctx := context.Background()
			svc, err := New(Config{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close(ctx)
			seed := uint64(1 << 20)
			b.ReportAllocs()
			for b.Loop() {
				seed++
				s := seed
				if kind == "twin" {
					s = seed % 4
				}
				if it := svc.Batch(ctx, []Request{coldRequest(kind, 100, s)}); it[0].Error != "" {
					b.Fatal(it[0].Error)
				}
			}
		})
	}
}
