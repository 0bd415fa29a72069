package fastvg

// This file is the benchmark harness for every table and figure in the
// paper's evaluation (Section 5), plus the ablations called out in
// DESIGN.md. Each benchmark reports, beyond ns/op:
//
//	probes/op     distinct voltage configurations measured
//	exp_s/op      experiment (dwell) time on the virtual clock, seconds
//	speedup       baseline experiment time / fast experiment time
//
// Run with: go test -bench=. -benchmem
//
// Table 1 rows are BenchmarkTable1/csd-NN/{fast,baseline}; figures are
// BenchmarkFigure2..7 (Figure 1 is a device micrograph; its schematic
// substitute is pure text output and has no benchmark).

import (
	"context"
	"fmt"
	"testing"

	"github.com/fastvg/fastvg/internal/baseline"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/evalx"
	"github.com/fastvg/fastvg/internal/imaging"
	"github.com/fastvg/fastvg/internal/postproc"
	"github.com/fastvg/fastvg/internal/qflow"
	"github.com/fastvg/fastvg/internal/sweep"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// benchFast runs the fast extraction on a pre-generated dataset instrument
// and reports the paper's metrics.
func benchFast(b *testing.B, bm *qflow.Benchmark) {
	b.Helper()
	data, err := bm.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var probes, expNanos float64
	ok := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := newDatasetInstrument(data, bm)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Extract(csd.PixelSource{Src: inst, Win: bm.Window}, bm.Window, core.Config{})
		st := inst.Stats()
		probes += float64(st.UniqueProbes)
		expNanos += float64(st.Virtual.Nanoseconds())
		if err == nil {
			if good, _, _ := evalx.CheckSlopes(res.SteepSlope, res.ShallowSlope, bm.Truth, evalx.DefaultAngleTolDeg); good {
				ok++
			}
		}
	}
	b.ReportMetric(probes/float64(b.N), "probes/op")
	b.ReportMetric(expNanos/float64(b.N)/1e9, "exp_s/op")
	b.ReportMetric(float64(ok)/float64(b.N), "success")
}

func benchBaseline(b *testing.B, bm *qflow.Benchmark) {
	b.Helper()
	data, err := bm.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var probes, expNanos float64
	ok := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := newDatasetInstrument(data, bm)
		if err != nil {
			b.Fatal(err)
		}
		res, err := baseline.Extract(inst, bm.Window, baseline.Config{})
		st := inst.Stats()
		probes += float64(st.UniqueProbes)
		expNanos += float64(st.Virtual.Nanoseconds())
		if err == nil {
			if good, _, _ := evalx.CheckSlopes(res.SteepSlope, res.ShallowSlope, bm.Truth, evalx.DefaultAngleTolDeg); good {
				ok++
			}
		}
	}
	b.ReportMetric(probes/float64(b.N), "probes/op")
	b.ReportMetric(expNanos/float64(b.N)/1e9, "exp_s/op")
	b.ReportMetric(float64(ok)/float64(b.N), "success")
}

// BenchmarkTable1 reproduces every row of the paper's Table 1: both methods
// on all 12 benchmarks.
func BenchmarkTable1(b *testing.B) {
	suite := qflow.MustSuite()
	for _, bm := range suite {
		bm := bm
		b.Run(fmt.Sprintf("%s/fast", bm.Name), func(b *testing.B) { benchFast(b, bm) })
		b.Run(fmt.Sprintf("%s/baseline", bm.Name), func(b *testing.B) { benchBaseline(b, bm) })
	}
}

// BenchmarkFigure2 measures CSD synthesis (the acquisition behind the
// example diagram of Figure 2).
func BenchmarkFigure2(b *testing.B) {
	bm, err := evalx.ByIndex(6)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := bm.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 measures the virtual-gate warp of an extracted matrix
// (Figure 3's right panel).
func BenchmarkFigure3(b *testing.B) {
	bm, err := evalx.ByIndex(6)
	if err != nil {
		b.Fatal(err)
	}
	data, err := bm.Generate()
	if err != nil {
		b.Fatal(err)
	}
	m, err := virtualgate.FromSlopes(bm.Truth.SteepSlope, bm.Truth.ShallowSlope)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := virtualgate.Warp(data, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 measures the anchor preprocessing that defines the
// critical region (Figure 4).
func BenchmarkFigure4(b *testing.B) {
	bm, err := evalx.ByIndex(6)
	if err != nil {
		b.Fatal(err)
	}
	data, err := bm.Generate()
	if err != nil {
		b.Fatal(err)
	}
	src := csd.GridSource{G: data}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anchorsFind(src, data.W, data.H); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 measures the two shrinking-triangle sweeps (Figure 5).
func BenchmarkFigure5(b *testing.B) {
	bm, err := evalx.ByIndex(6)
	if err != nil {
		b.Fatal(err)
	}
	data, err := bm.Generate()
	if err != nil {
		b.Fatal(err)
	}
	src := csd.GridSource{G: data}
	anc, err := anchorsFind(src, data.W, data.H)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := sweep.Sweeps(src, anc.Left, anc.Bottom); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 measures the post-processing filter on realistic sweep
// output (Figure 6).
func BenchmarkFigure6(b *testing.B) {
	bm, err := evalx.ByIndex(6)
	if err != nil {
		b.Fatal(err)
	}
	data, err := bm.Generate()
	if err != nil {
		b.Fatal(err)
	}
	src := csd.GridSource{G: data}
	anc, err := anchorsFind(src, data.W, data.H)
	if err != nil {
		b.Fatal(err)
	}
	points, _, _, err := sweep.Sweeps(src, anc.Left, anc.Bottom)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postproc.Filter(points)
	}
}

// BenchmarkFigure7 measures probe-map extraction for benchmarks 6 and 10
// (Figure 7's data).
func BenchmarkFigure7(b *testing.B) {
	for _, idx := range []int{6, 10} {
		idx := idx
		b.Run(fmt.Sprintf("csd-%02d", idx), func(b *testing.B) {
			bm, err := evalx.ByIndex(idx)
			if err != nil {
				b.Fatal(err)
			}
			data, err := bm.Generate()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := newDatasetInstrument(data, bm)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Extract(csd.PixelSource{Src: inst, Win: bm.Window}, bm.Window, core.Config{}); err != nil {
					b.Fatal(err)
				}
				if len(inst.ProbeMap()) == 0 {
					b.Fatal("empty probe map")
				}
			}
		})
	}
}

// BenchmarkAblation quantifies each design choice of Section 4 on benchmark
// CSD 6: triangle shrinking, the column sweep, the post-processing filter,
// and the baseline's TLS refinement.
func BenchmarkAblation(b *testing.B) {
	bm, err := evalx.ByIndex(6)
	if err != nil {
		b.Fatal(err)
	}
	data, err := bm.Generate()
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"paper", core.Config{}},
		{"no-shrink", core.Config{NoShrink: true}},
		{"row-only", core.Config{RowSweepOnly: true}},
		{"no-filter", core.Config{DisableFilter: true}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var probes float64
			ok := 0
			for i := 0; i < b.N; i++ {
				inst, err := newDatasetInstrument(data, bm)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Extract(csd.PixelSource{Src: inst, Win: bm.Window}, bm.Window, tc.cfg)
				probes += float64(inst.Stats().UniqueProbes)
				if err == nil {
					if good, _, _ := evalx.CheckSlopes(res.SteepSlope, res.ShallowSlope, bm.Truth, evalx.DefaultAngleTolDeg); good {
						ok++
					}
				}
			}
			b.ReportMetric(probes/float64(b.N), "probes/op")
			b.ReportMetric(float64(ok)/float64(b.N), "success")
		})
	}
	b.Run("baseline-no-refine", func(b *testing.B) {
		ok := 0
		for i := 0; i < b.N; i++ {
			res, err := baseline.ExtractFromGrid(data, bm.Window, baseline.Config{NoRefine: true})
			if err == nil {
				if good, _, _ := evalx.CheckSlopes(res.SteepSlope, res.ShallowSlope, bm.Truth, evalx.DefaultAngleTolDeg); good {
					ok++
				}
			}
		}
		b.ReportMetric(float64(ok)/float64(b.N), "success")
	})
}

// BenchmarkScalingGridSize sweeps the window resolution, showing the fast
// method's probe count growing ~linearly with the window side while the
// baseline's grows quadratically (the source of the paper's size-dependent
// speedups).
func BenchmarkScalingGridSize(b *testing.B) {
	for _, n := range []int{63, 100, 200, 400} {
		n := n
		b.Run(fmt.Sprintf("fast-%d", n), func(b *testing.B) {
			var probes float64
			for i := 0; i < b.N; i++ {
				inst, _, err := NewDoubleDotSim(DoubleDotSimOptions{Pixels: n, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Extract(inst, inst.Window(), Options{}); err != nil {
					b.Fatal(err)
				}
				probes += float64(inst.Stats().UniqueProbes)
			}
			b.ReportMetric(probes/float64(b.N), "probes/op")
			b.ReportMetric(probes/float64(b.N)/float64(n*n)*100, "probe_pct")
		})
	}
}

// BenchmarkChainExtraction measures the n-dot sequential pairwise procedure
// (Section 2.3), fast method only on one worker, as the array grows.
func BenchmarkChainExtraction(b *testing.B) {
	for _, dots := range []int{2, 4, 8} {
		dots := dots
		b.Run(fmt.Sprintf("dots-%d", dots), func(b *testing.B) {
			var probes float64
			for i := 0; i < b.N; i++ {
				spec := ChainSimOptions{Dots: dots, Seed: uint64(i)}.Spec()
				res, err := ExtractChainSpec(context.Background(), spec, ChainExtractOptions{
					Workers: 1, Methods: []ChainMethod{ChainMethodFast},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Chain == nil {
					b.Fatalf("pairs failed: %v", res.Failed())
				}
				probes += float64(res.Probes)
			}
			b.ReportMetric(probes/float64(b.N), "probes/op")
		})
	}
}

// BenchmarkCannyHough isolates the baseline's image-processing cost (its
// compute is negligible next to acquisition dwell, as the paper notes).
func BenchmarkCannyHough(b *testing.B) {
	bm, err := evalx.ByIndex(12) // 200×200
	if err != nil {
		b.Fatal(err)
	}
	data, err := bm.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edges := imaging.Canny(data.Normalized(), imaging.DefaultCannyConfig())
		acc := imaging.Hough(edges, imaging.DefaultHoughConfig())
		acc.Peaks(8, 50, 8, 10)
	}
}

// BenchmarkExtensions measures the repository's additions beyond the paper:
// the ray-based comparison method, the adaptive coarse-to-fine pass and the
// automatic window finder, each on a clean simulated device.
func BenchmarkExtensions(b *testing.B) {
	b.Run("rays", func(b *testing.B) {
		var probes float64
		for i := 0; i < b.N; i++ {
			inst, _, err := NewDoubleDotSim(DoubleDotSimOptions{Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ExtractRays(inst, inst.Window(), RayOptions{}); err != nil {
				b.Fatal(err)
			}
			probes += float64(inst.Stats().UniqueProbes)
		}
		b.ReportMetric(probes/float64(b.N), "probes/op")
	})
	b.Run("adaptive-200px", func(b *testing.B) {
		var probes float64
		for i := 0; i < b.N; i++ {
			inst, _, err := NewDoubleDotSim(DoubleDotSimOptions{Pixels: 200, Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ExtractAdaptive(inst, inst.Window(), AdaptiveOptions{}); err != nil {
				b.Fatal(err)
			}
			probes += float64(inst.Stats().UniqueProbes)
		}
		b.ReportMetric(probes/float64(b.N), "probes/op")
	})
	b.Run("plain-200px", func(b *testing.B) {
		var probes float64
		for i := 0; i < b.N; i++ {
			inst, _, err := NewDoubleDotSim(DoubleDotSimOptions{Pixels: 200, Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Extract(inst, inst.Window(), Options{}); err != nil {
				b.Fatal(err)
			}
			probes += float64(inst.Stats().UniqueProbes)
		}
		b.ReportMetric(probes/float64(b.N), "probes/op")
	})
	b.Run("find-window", func(b *testing.B) {
		var probes float64
		for i := 0; i < b.N; i++ {
			inst, _, err := NewDoubleDotSim(DoubleDotSimOptions{
				Pixels: 240, SpanMV: 120, CrossXFrac: 0.25, CrossYFrac: 0.23, Seed: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			ws, err := FindWindow(inst, 0, 120, 0, 120, 100)
			if err != nil {
				b.Fatal(err)
			}
			probes += float64(ws.Probes)
		}
		b.ReportMetric(probes/float64(b.N), "probes/op")
	})
}
