package surrogate

import (
	"testing"

	"github.com/fastvg/fastvg/internal/device"
)

// BenchmarkSurrogateProbe compares the wall cost of one twin-served probe
// against one live simulated probe (cold sensor evaluation, the honest
// comparator — on hardware the gap is the 50 ms dwell, which the virtual
// clock accounts separately). scripts/bench.sh records both in BENCH.txt.
func BenchmarkSurrogateProbe(b *testing.B) {
	spec := device.DoubleDotSpec{Seed: 7}
	spec.FillDefaults()

	b.Run("twin", func(b *testing.B) {
		inst, win, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		m := New(win)
		h := &Hybrid{Model: m, Inner: inst, Threshold: DefaultThreshold, Learn: true}
		for y := 0; y < win.Rows; y++ {
			for x := 0; x < win.Cols; x++ {
				h.GetCurrent(win.V1At(x), win.V2At(y))
			}
		}
		if err := m.Fit(); err != nil {
			b.Fatal(err)
		}
		// Cycle plateau pixels the twin confidently serves.
		var pts [][2]float64
		for y := 0; y < win.Rows; y++ {
			for x := 0; x < win.Cols; x++ {
				v1, v2 := win.V1At(x), win.V2At(y)
				if _, conf := m.Predict(v1, v2); conf >= DefaultThreshold {
					pts = append(pts, [2]float64{v1, v2})
				}
			}
		}
		if len(pts) == 0 {
			b.Fatal("no twin-served pixels")
		}
		before := h.Escalations()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pts[i%len(pts)]
			h.GetCurrent(p[0], p[1])
		}
		b.StopTimer()
		if h.Escalations() != before {
			b.Fatalf("twin bench escalated %d probes", h.Escalations()-before)
		}
	})

	b.Run("sim", func(b *testing.B) {
		inst, win, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		cells := win.Cols * win.Rows
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%cells == 0 {
				// A fresh instrument keeps every probe a cold sensor
				// evaluation instead of a memo lookup.
				b.StopTimer()
				inst, _, err = spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			inst.GetCurrent(win.V1At(i%win.Cols), win.V2At((i/win.Cols)%win.Rows))
		}
	})
}
