package device

// The N-dot probe-path benchmarks, mirroring BenchmarkProbe* for a chain
// pair's instrument. The memo-hit path must report 0 allocs/op.

import (
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/noise"
)

// benchPair returns a pair view of a 4-dot chain and a 32×32 raster over
// the first cells of its window — the pairwise-chain probing shape of the
// n-dot extraction.
func benchPair(tb testing.TB) (*PairView, [][2]float64) {
	tb.Helper()
	spec := ChainSpec{}
	pv, win, err := spec.BuildPair(1)
	if err != nil {
		tb.Fatal(err)
	}
	var probes [][2]float64
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			probes = append(probes, [2]float64{win.V1At(x), win.V2At(y)})
		}
	}
	return pv, probes
}

// BenchmarkProbeMultiScalar measures the cold N-dot probe path: every probe
// misses the memo and runs the chain ground-state search.
func BenchmarkProbeMultiScalar(b *testing.B) {
	pv, probes := benchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(probes) == 0 {
			pv.ResetStats()
		}
		p := probes[i%len(probes)]
		pv.GetCurrent(p[0], p[1])
	}
}

// BenchmarkProbeMultiMemoHit measures the re-probe path: every probe is a
// memo hit. Must be 0 allocs/op.
func BenchmarkProbeMultiMemoHit(b *testing.B) {
	pv, probes := benchPair(b)
	for _, p := range probes {
		pv.GetCurrent(p[0], p[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		pv.GetCurrent(p[0], p[1])
	}
}

// TestMultiMemoHitAllocs pins the memo contract: a hit allocates nothing.
func TestMultiMemoHitAllocs(t *testing.T) {
	pv, probes := benchPair(t)
	p := probes[37]
	pv.GetCurrent(p[0], p[1])
	allocs := testing.AllocsPerRun(200, func() { pv.GetCurrent(p[0], p[1]) })
	if allocs != 0 {
		t.Fatalf("memo hit allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkPairViewRaster measures the instrument chain jobs and fleet
// chains probe: a PairView from a 6-dot ChainSpec.BuildPair, rastered over
// its 100×100 window through GetCurrent. Every probe is fresh, because the
// memo opens a new epoch before each raster, so one op is 10,000 ground-
// state searches, sensor responses and noise samples; ns/probe prices one.
func BenchmarkPairViewRaster(b *testing.B) {
	for _, preset := range []struct {
		name  string
		noise noise.Params
	}{{"quiet", noise.PresetQuiet()}, {"standard", noise.PresetStandard()}} {
		b.Run(preset.name, func(b *testing.B) {
			spec := ChainSpec{Dots: 6, Noise: preset.noise, Seed: 9}
			pv, win, err := spec.BuildPair(2)
			if err != nil {
				b.Fatal(err)
			}
			v1s, v2s := make([]float64, win.Cols), make([]float64, win.Rows)
			for x := range v1s {
				v1s[x] = win.V1At(x)
			}
			for y := range v2s {
				v2s[y] = win.V2At(y)
			}
			b.ReportAllocs()
			for b.Loop() {
				pv.M.Advance(time.Second)
				for _, v2 := range v2s {
					for _, v1 := range v1s {
						pv.GetCurrent(v1, v2)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(v1s)*len(v2s)), "ns/probe")
		})
	}
}
