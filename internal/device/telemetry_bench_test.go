package device

// Probe-overhead benchmarks for the telemetry subsystem (the metric
// primitives are benchmarked in internal/telemetry; these sit here
// because device is below sched — and therefore below telemetry's test
// importers — in the import graph):
//
//	BenchmarkProbeBare     the scalar probe hot path, uninstrumented
//	BenchmarkProbeCounted  the same path carrying the accounting the
//	                       pipelines actually perform: telemetry is
//	                       deliberately kept off the per-probe inner
//	                       loop, so per-probe outcomes accumulate in
//	                       locals and flush to the registry once per
//	                       acquired row (one counter add + one
//	                       histogram observe per win.Cols probes)
//
// The surrogate layer is the one exception — its confidence gate
// observes per model query — and its per-query cost is exactly the
// BenchmarkCounterInc + BenchmarkHistogramObserve primitives of
// internal/telemetry.
//
// The acceptance gate, read from BENCH.txt: (ProbeCounted − ProbeBare) /
// ProbeBare < 2%, both at 0 allocs/op.

import (
	"testing"

	"github.com/fastvg/fastvg/internal/telemetry"
)

// probeOverheadBench drives the same scalar probe loop as
// BenchmarkProbeScalar; flushRow(sum, n) is the per-row telemetry under
// test (nil = bare).
func probeOverheadBench(b *testing.B, flushRow func(sum float64, n int)) {
	inst, win := benchInstrument(b, false)
	// Warm the memo rows so growth allocations land outside the timer.
	for y := 0; y < win.Rows; y++ {
		v2 := win.V2At(y)
		for x := 0; x < win.Cols; x++ {
			inst.GetCurrent(win.V1At(x), v2)
		}
	}
	inst.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	x, y := 0, 0
	rowSum := 0.0
	for i := 0; i < b.N; i++ {
		rowSum += inst.GetCurrent(win.V1At(x), win.V2At(y))
		if x++; x == win.Cols {
			if flushRow != nil {
				flushRow(rowSum, win.Cols)
			}
			rowSum = 0
			x = 0
			if y++; y == win.Rows {
				y = 0
				inst.ResetStats()
			}
		}
	}
}

func BenchmarkProbeBare(b *testing.B) {
	probeOverheadBench(b, nil)
}

func BenchmarkProbeCounted(b *testing.B) {
	r := telemetry.NewRegistry()
	c := r.Counter("vgx_bench_probes_total", "h")
	h := r.Histogram("vgx_bench_row_current", "h", telemetry.UnitBuckets)
	probeOverheadBench(b, func(sum float64, n int) {
		c.Add(int64(n))
		h.Observe(sum / float64(n))
	})
}
