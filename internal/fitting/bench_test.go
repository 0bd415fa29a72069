package fitting

import (
	"testing"

	"github.com/fastvg/fastvg/internal/xrand"
)

// BenchmarkTheilSen fits 60 points, the size of a sweep's point set in the
// fast pipeline's knee initialisation: 1770 pairwise slopes and 60
// intercepts, each reduced to a median.
func BenchmarkTheilSen(b *testing.B) {
	pts := randomPoints(xrand.New(1), 60)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := TheilSen(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitKnee fits the piecewise knee model to 100 noisy points:
// Levenberg–Marquardt, then the Nelder–Mead polish.
func BenchmarkFitKnee(b *testing.B) {
	truth := Polyline2{A: Vec2{60, 1}, K: Vec2{54, 42}, B: Vec2{1, 49}}
	pts := syntheticPolylinePoints(truth, 100, 0.8, 4)
	init := InitialKnee(pts, truth.A, truth.B)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := FitKnee(pts, truth.A, truth.B, init); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTheilSenAllocs pins TheilSen to its one pooled buffer: the slopes
// and the intercepts share it and both medians are taken in place, so a
// warm call allocates nothing. Race builds drop pooled items at random,
// and there the bound is the one buffer.
func TestTheilSenAllocs(t *testing.T) {
	pts := randomPoints(xrand.New(2), 60)
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := TheilSen(pts); err != nil {
			t.Fatal(err)
		}
	})
	want := 0.0
	if raceEnabled {
		want = 1
	}
	if allocs > want {
		t.Fatalf("TheilSen allocates %.1f objects/op, want at most %.0f", allocs, want)
	}
}

// TestFitKneeAllocs pins FitKnee to three buffers: one for
// Levenberg–Marquardt's vectors and matrices, and Nelder–Mead's vertex
// values and vertex list. Neither optimiser allocates per iteration.
func TestFitKneeAllocs(t *testing.T) {
	truth := Polyline2{A: Vec2{60, 1}, K: Vec2{54, 42}, B: Vec2{1, 49}}
	pts := syntheticPolylinePoints(truth, 100, 0.8, 4)
	init := InitialKnee(pts, truth.A, truth.B)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := FitKnee(pts, truth.A, truth.B, init); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("FitKnee allocates %.1f objects/op, want at most 3", allocs)
	}
}
