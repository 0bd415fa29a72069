package core

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/fastvg/fastvg/internal/fitting"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// TestRefineVerticalSteepBranchIsFinite: a steep branch whose filtered
// points share one column has a Theil–Sen x-on-y slope of exactly 0. The
// refinement stands (adaptive extraction places its fine anchors from it),
// but the published slopes must be finite so the result can be encoded.
func TestRefineVerticalSteepBranchIsFinite(t *testing.T) {
	win := squareWin(64)
	model := fitting.Polyline2{
		A: fitting.Vec2{X: 41, Y: 0},
		K: fitting.Vec2{X: 40, Y: 25},
		B: fitting.Vec2{X: 0, Y: 30},
	}
	res := &Result{Fit: fitting.FitKneeResult{Model: model}, Knee: model.K}
	for y := 0; y <= 20; y++ {
		res.Points = append(res.Points, grid.Point{X: 40, Y: y})
	}
	for x := 0; x <= 35; x++ {
		res.Points = append(res.Points, grid.Point{X: x, Y: int(math.Round(30 - 0.125*float64(x)))})
	}
	res.SteepSlopePx = model.SteepSlope()
	res.ShallowSlopePx = model.ShallowSlope()
	res.SteepSlope = win.PixelSlopeToVoltage(res.SteepSlopePx)
	res.ShallowSlope = win.PixelSlopeToVoltage(res.ShallowSlopePx)
	m, err := virtualgate.FromSlopes(res.SteepSlope, res.ShallowSlope)
	if err != nil {
		t.Fatal(err)
	}
	res.Matrix = m

	cfg := Config{}
	cfg.fillDefaults()
	refineSlopes(res, win, cfg)

	if !res.Refined {
		t.Fatal("vertical steep branch not refined")
	}
	for name, v := range map[string]float64{"SteepSlope": res.SteepSlope, "SteepSlopePx": res.SteepSlopePx} {
		if math.IsInf(v, 0) || math.IsNaN(v) || v > -1e6 {
			t.Fatalf("%s = %v, want a finite stand-in for vertical", name, v)
		}
	}
	if a12 := res.Matrix.A12(); math.Abs(a12) > 1e-6 {
		t.Fatalf("a12 = %v for a vertical steep line, want ≈ 0", a12)
	}
	if res.Knee.X != 40 {
		t.Fatalf("knee x = %v, want the vertical line's column 40", res.Knee.X)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("refined result does not encode: %v", err)
	}
}
