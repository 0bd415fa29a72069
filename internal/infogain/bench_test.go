package infogain

import (
	"fmt"
	"testing"

	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/noise"
)

// benchPresets are the noise environments the probe-economy benchmarks sweep:
// clean, white-only, and the lab-like white+pink mix the tests use.
var benchPresets = []struct {
	name string
	n    noise.Params
}{
	{"noiseless", noise.Params{}},
	{"white", noise.Params{WhiteSigma: 0.01}},
	{"lab", noise.Params{WhiteSigma: 0.01, PinkAmp: 0.012, PinkN: 12}},
}

// BenchmarkInfoGainVsFast is the headline probe-economy comparison
// recorded in BENCH.txt: the fast raster extraction and the active
// scheduler run on identically spec'd default double-dot windows, and the
// custom metrics report mean probes and matrix error for each, plus the
// probe cut. Averaged over 4 seeds per iteration so one lucky noise draw
// cannot carry the headline.
func BenchmarkInfoGainVsFast(b *testing.B) {
	const seeds = 4
	for _, p := range benchPresets {
		b.Run(p.name, func(b *testing.B) {
			var igProbes, igErr, fastProbes, fastErr float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for seed := uint64(1); seed <= seeds; seed++ {
					inst, win, truth := buildDefault(b, p.n, seed)
					src := csd.PixelSource{Src: inst, Win: win}
					fr, err := core.Extract(src, win, core.Config{})
					if err != nil {
						b.Fatal(err)
					}
					fastProbes += float64(inst.Stats().UniqueProbes)
					fastErr += matErr(fr.Matrix, truth)

					inst2, win2, _ := buildDefault(b, p.n, seed)
					src2 := csd.PixelSource{Src: inst2, Win: win2}
					ir, err := Extract(src2, win2, Config{})
					if err != nil {
						b.Fatal(err)
					}
					igProbes += float64(inst2.Stats().UniqueProbes)
					igErr += matErr(ir.Matrix, truth)
				}
			}
			n := float64(b.N) * seeds
			b.ReportMetric(igProbes/n, "ig-probes")
			b.ReportMetric(igErr/n, "ig-err")
			b.ReportMetric(fastProbes/n, "fast-probes")
			b.ReportMetric(fastErr/n, "fast-err")
			b.ReportMetric(fastProbes/igProbes, "probe-cut")
		})
	}
}

// BenchmarkInfoGainCurve traces the probes-to-target-accuracy curve: probes
// spent and matrix error reached as the CI target tightens, per noise
// preset. Looser targets stop earlier; the default (0.030) is the last
// point.
func BenchmarkInfoGainCurve(b *testing.B) {
	const seeds = 4
	for _, p := range benchPresets {
		for _, ci := range []float64{0.09, 0.06, 0.045, 0.03} {
			b.Run(fmt.Sprintf("%s/ci=%.3f", p.name, ci), func(b *testing.B) {
				var probes, errSum float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for seed := uint64(1); seed <= seeds; seed++ {
						inst, win, truth := buildDefault(b, p.n, seed)
						src := csd.PixelSource{Src: inst, Win: win}
						res, err := Extract(src, win, Config{TargetCI: ci})
						if err != nil {
							b.Fatal(err)
						}
						probes += float64(inst.Stats().UniqueProbes)
						errSum += matErr(res.Matrix, truth)
					}
				}
				n := float64(b.N) * seeds
				b.ReportMetric(probes/n, "probes")
				b.ReportMetric(errSum/n, "err")
			})
		}
	}
}

// BenchmarkInfoGainExtract is the scheduler's per-layer cost: one cold
// extraction on the default 100×100 double-dot window under standard noise.
// The window is acquired once up front, so the timed loop runs the
// posterior math (seeding, candidate scoring, updates, refinement) and
// none of the probe physics.
func BenchmarkInfoGainExtract(b *testing.B) {
	inst, win, _ := buildDefault(b, noise.PresetStandard(), 1)
	g, err := csd.Acquire(inst, win)
	if err != nil {
		b.Fatal(err)
	}
	src := csd.GridSource{G: g}
	var probes int
	b.ReportAllocs()
	for b.Loop() {
		res, err := Extract(src, win, Config{})
		if err != nil {
			b.Fatal(err)
		}
		probes = res.SeedProbes + res.ActiveProbes
	}
	b.ReportMetric(float64(probes), "probes")
}
