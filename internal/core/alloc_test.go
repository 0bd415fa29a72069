package core

import (
	"testing"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
)

// raceEnabled is set in race builds, where sync.Pool drops items at random
// and allocation counts differ.
var raceEnabled bool

// extractAllocs is what one fast extraction on a freshly built spec sim
// allocates once warm: device build, anchor search, sweeps, filter and
// the result. Row segments, memo rows and the knee fit's scratch come from
// the previous extraction's buffers; 128 objects measured, with room for
// a pooled buffer the collector dropped mid-run.
const extractAllocs = 140

// TestExtractAllocs pins the allocation count of one fast extraction on a
// spec-built sim that is released afterwards, the work behind every cold
// fast request and chain pair.
func TestExtractAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	run := func() {
		spec := device.DoubleDotSpec{Pixels: 100, Seed: 21, Noise: noise.Params{WhiteSigma: 0.01, PinkAmp: 0.012, PinkN: 12}}
		inst, win, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Extract(csd.PixelSource{Src: inst, Win: win}, win, Config{}); err != nil {
			t.Fatal(err)
		}
		inst.Release()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > extractAllocs {
		t.Fatalf("one fast extraction allocates %.0f objects, want at most %d", allocs, extractAllocs)
	}
}
