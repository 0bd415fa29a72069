package device

// The N-dot probe-path benchmarks, mirroring BenchmarkProbe* for
// MultiInstrument. The acceptance gate of the memo-key rework: the memo-hit
// path must report 0 allocs/op (the quantised key is built in a reusable
// scratch buffer and looked up without materialising a string).

import (
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/noise"
)

func benchMultiInstrument(b *testing.B, n int) (*MultiInstrument, [][]float64) {
	b.Helper()
	dev := testArrayDevice(b, n)
	inst := NewMultiInstrument(dev, DefaultDwell, 0.5)
	// A raster over the first two gates, every other gate held mid-range —
	// the pairwise-chain probing shape of the n-dot extraction.
	var probes [][]float64
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			v := make([]float64, n)
			for g := 2; g < n; g++ {
				v[g] = 1.0
			}
			v[0] = float64(x) * 0.5
			v[1] = float64(y) * 0.5
			probes = append(probes, v)
		}
	}
	return inst, probes
}

// BenchmarkProbeMultiScalar measures the cold N-dot probe path: every probe
// misses the memo and runs the chain ground-state search.
func BenchmarkProbeMultiScalar(b *testing.B) {
	inst, probes := benchMultiInstrument(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(probes) == 0 {
			inst.ResetStats()
		}
		inst.GetCurrentN(probes[i%len(probes)])
	}
}

// BenchmarkProbeMultiMemoHit measures the re-probe path: every probe is a
// memo hit. Must be 0 allocs/op.
func BenchmarkProbeMultiMemoHit(b *testing.B) {
	inst, probes := benchMultiInstrument(b, 4)
	for _, v := range probes {
		inst.GetCurrentN(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.GetCurrentN(probes[i%len(probes)])
	}
}

// TestMultiMemoHitAllocs pins the memo-key contract: a hit allocates
// nothing.
func TestMultiMemoHitAllocs(t *testing.T) {
	dev := testArrayDevice(t, 4)
	inst := NewMultiInstrument(dev, DefaultDwell, 0.5)
	v := []float64{1, 2, 3, 4}
	inst.GetCurrentN(v)
	allocs := testing.AllocsPerRun(200, func() { inst.GetCurrentN(v) })
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
