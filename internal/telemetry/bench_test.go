package telemetry

// Telemetry overhead benchmarks (recorded in BENCH.txt by scripts/bench.sh):
//
//	BenchmarkCounterInc        one atomic add, 0 allocs
//	BenchmarkHistogramObserve  bucket binary search + atomics, 0 allocs
//	BenchmarkGaugeSet          one atomic store, 0 allocs
//	BenchmarkExposition        full registry render (scrape cost)
//
// The probe-overhead pair (BenchmarkProbeBare / BenchmarkProbeCounted)
// lives in internal/device — the instrument package sits below sched in
// the import graph, so it cannot be benchmarked from here.
//
// The acceptance gate: CounterInc must report 0 allocs/op, and the
// device-side pair must show <2% overhead.

import (
	"fmt"
	"testing"
)

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("vgx_bench_total", "h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("vgx_bench_seconds", "h", SecondsBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("vgx_bench_level", "h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

// BenchmarkExposition renders a registry shaped like the real service's
// (a few dozen families, labelled series, histograms) — the cost of one
// /metrics scrape.
func BenchmarkExposition(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter(fmt.Sprintf("vgx_bench_c%d_total", i), "h").Add(int64(i))
	}
	for _, kind := range []string{"fast", "baseline", "chain", "verify"} {
		r.Counter("vgx_bench_jobs_total", "h", L("kind", kind)).Inc()
		r.Histogram("vgx_bench_job_seconds", "h", SecondsBuckets, L("kind", kind)).Observe(0.01)
	}
	for i := 0; i < 6; i++ {
		r.Gauge(fmt.Sprintf("vgx_bench_g%d", i), "h").Set(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Expose()) == 0 {
			b.Fatal("empty exposition")
		}
	}
}
