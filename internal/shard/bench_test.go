package shard

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/service"
)

// The shard benchmarks time real extraction work through the front door.
// Each shard runs one worker, so adding shards adds workers and jobs/sec
// scales with the shard count until the CPUs are saturated. Seeds are
// globally unique so no iteration ever hits the cache.

var benchSeed atomic.Uint64

func init() { benchSeed.Store(10_000) }

// benchRequests mints n never-seen-before cacheable requests.
func benchRequests(n int) []service.Request {
	reqs := make([]service.Request, n)
	for i := range reqs {
		seed := benchSeed.Add(1)
		reqs[i] = service.Request{Kind: service.KindFast,
			Sim: &device.DoubleDotSpec{Pixels: 64, Seed: seed}}
	}
	return reqs
}

func newBenchCluster(b *testing.B, shards int) *Cluster {
	b.Helper()
	c, err := New(Config{Shards: shards, Base: service.Config{
		Workers: 1, ScrapeInterval: -1,
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close(context.Background()) })
	return c
}

// BenchmarkShardThroughput drives 24 concurrent jobs per iteration
// through the router and reports jobs/sec and per-job p99 at 1, 2, 4 and
// 8 shards (README's sharded-serving scaling, recorded in BENCH.txt).
func BenchmarkShardThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "shards-1", 2: "shards-2", 4: "shards-4", 8: "shards-8"}[shards],
			func(b *testing.B) {
				c := newBenchCluster(b, shards)
				ctx := context.Background()
				const jobsPerIter = 24
				var lat []time.Duration
				var latMu sync.Mutex
				jobs := 0
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					reqs := benchRequests(jobsPerIter)
					var wg sync.WaitGroup
					for _, req := range reqs {
						wg.Add(1)
						go func(req service.Request) {
							defer wg.Done()
							t0 := time.Now()
							if _, err := c.Run(ctx, req); err != nil {
								b.Error(err)
								return
							}
							d := time.Since(t0)
							latMu.Lock()
							lat = append(lat, d)
							latMu.Unlock()
						}(req)
					}
					wg.Wait()
					jobs += jobsPerIter
				}
				elapsed := time.Since(start)
				b.StopTimer()
				if jobs > 0 && elapsed > 0 {
					b.ReportMetric(float64(jobs)/elapsed.Seconds(), "jobs/s")
				}
				if len(lat) > 0 {
					sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
					idx := len(lat) * 99 / 100
					if idx >= len(lat) {
						idx = len(lat) - 1
					}
					b.ReportMetric(float64(lat[idx])/float64(time.Millisecond), "p99-ms")
				}
			})
	}
}

// BenchmarkScatterGather measures the batch path: one Table-1-sized
// batch of fresh requests per iteration, scattered across shards and
// merged back into request order.
func BenchmarkScatterGather(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(map[int]string{1: "shards-1", 8: "shards-8"}[shards],
			func(b *testing.B) {
				c := newBenchCluster(b, shards)
				ctx := context.Background()
				const batchSize = 24
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					items := c.Batch(ctx, benchRequests(batchSize))
					for _, item := range items {
						if item.Error != "" {
							b.Fatal(item.Error)
						}
					}
				}
				elapsed := time.Since(start)
				b.StopTimer()
				if b.N > 0 && elapsed > 0 {
					b.ReportMetric(float64(b.N*batchSize)/elapsed.Seconds(), "jobs/s")
				}
			})
	}
}
