package device

// The probe-path benchmarks (recorded in BENCH.txt by scripts/bench.sh):
//
//	BenchmarkProbeScalar      one GetCurrent per cold pixel, raster order
//	BenchmarkProbeBatch       the same raster pulled through CurrentRow
//	BenchmarkProbeMemoHit     re-probing memoised configurations
//	BenchmarkGridRenderScalar full 100×100 window, scalar probe loop
//	BenchmarkGridRenderBatch  full 100×100 window through AcquireGrid
//	BenchmarkGridRenderNoisy  AcquireGrid with the full temporal noise stack
//
// The acceptance gates of the batch-probing work: ProbeScalar/ProbeBatch
// must report 0 allocs/op in steady state, and GridRenderBatch must beat
// the pre-batch serial render (1.98 ms in a single-CPU container) by ≥3×.

import (
	"testing"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/noise"
)

func benchInstrument(b *testing.B, noisy bool) (*SimInstrument, csd.Window) {
	b.Helper()
	spec := &DoubleDotSpec{Seed: 7}
	if noisy {
		spec.Noise = noise.Params{WhiteSigma: 0.022, PinkAmp: 0.017, PinkN: 14, PinkFMin: 0.005, PinkFMax: 20}
	}
	inst, win, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	return inst, win
}

// BenchmarkProbeScalar measures the cold scalar probe path: every probe
// misses the memo and runs ground state + sensor + accounting. The memo is
// recycled with ResetStats whenever the window fills, which keeps its row
// buffers warm — steady state must be 0 allocs/op.
func BenchmarkProbeScalar(b *testing.B) {
	inst, win := benchInstrument(b, false)
	// Pre-size the memo rows so growth allocations land outside the timer.
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
	for i := 0; i < b.N; i++ {
		inst.GetCurrent(win.V1At(x), win.V2At(y))
		if x++; x == win.Cols {
			x = 0
			if y++; y == win.Rows {
				y = 0
				inst.ResetStats()
			}
		}
	}
}

// BenchmarkProbeBatch measures the cold batched probe path: whole rows
// through CurrentRow. Steady state must be 0 allocs/op.
func BenchmarkProbeBatch(b *testing.B) {
	inst, win := benchInstrument(b, false)
	v1s := make([]float64, win.Cols)
	for x := range v1s {
		v1s[x] = win.V1At(x)
	}
	out := make([]float64, win.Cols)
	for y := 0; y < win.Rows; y++ {
		inst.CurrentRow(win.V2At(y), v1s, out)
	}
	inst.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	y := 0
	for i := 0; i < b.N; i += win.Cols {
		inst.CurrentRow(win.V2At(y), v1s, out)
		if y++; y == win.Rows {
			y = 0
			inst.ResetStats()
		}
	}
	// b.N counts probes, not rows: i advances by Cols per iteration, so
	// ns/op and allocs/op read per-probe.
}

// BenchmarkProbeMemoHit measures the re-probe path: every probe is a memo
// hit. Must be 0 allocs/op.
func BenchmarkProbeMemoHit(b *testing.B) {
	inst, win := benchInstrument(b, false)
	for y := 0; y < win.Rows; y++ {
		v2 := win.V2At(y)
		for x := 0; x < win.Cols; x++ {
			inst.GetCurrent(win.V1At(x), v2)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	x, y := 0, 0
	for i := 0; i < b.N; i++ {
		inst.GetCurrent(win.V1At(x), win.V2At(y))
		if x++; x == win.Cols {
			x = 0
			if y++; y == win.Rows {
				y = 0
			}
		}
	}
}

// BenchmarkGridRenderScalar renders the full noiseless window with the
// scalar per-pixel loop — the pre-batch acquisition shape, on the new
// scalar fast path.
func BenchmarkGridRenderScalar(b *testing.B) {
	inst, win := benchInstrument(b, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst.ResetStats()
		if _, err := scalarRender(inst, win); err != nil {
			b.Fatal(err)
		}
	}
}

func scalarRender(inst *SimInstrument, win csd.Window) (int, error) {
	n := 0
	for y := 0; y < win.Rows; y++ {
		v2 := win.V2At(y)
		for x := 0; x < win.Cols; x++ {
			inst.GetCurrent(win.V1At(x), v2)
			n++
		}
	}
	return n, nil
}

// BenchmarkGridRenderBatch renders the full noiseless window through
// AcquireGrid (auto worker count).
func BenchmarkGridRenderBatch(b *testing.B) {
	inst, win := benchInstrument(b, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst.ResetStats()
		if _, err := inst.AcquireGrid(win, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridRenderNoisy renders the full window through AcquireGrid with
// the benchmark suite's typical noise stack: the parallel physics phase
// plus the serial virtual-clock noise replay.
func BenchmarkGridRenderNoisy(b *testing.B) {
	inst, win := benchInstrument(b, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst.ResetStats()
		if _, err := inst.AcquireGrid(win, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridRenderDataset replays a full window from a recorded CSD —
// the cold path of every benchmark-target baseline job in the service.
func BenchmarkGridRenderDataset(b *testing.B) {
	src, win := benchInstrument(b, false)
	g, err := src.AcquireGrid(win, 0)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := NewDatasetInstrument(g, win, DefaultDwell)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.ResetStats()
		if _, err := inst.AcquireGrid(win, 0); err != nil {
			b.Fatal(err)
		}
	}
}
