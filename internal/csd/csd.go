// Package csd defines the charge-stability-diagram scan window — the mapping
// between pixel indices and plunger-gate voltages — and full-raster
// acquisition, the data source of the paper's baseline method.
package csd

import (
	"errors"
	"fmt"
	"sync"

	"github.com/fastvg/fastvg/internal/grid"
)

// Window maps a Cols×Rows pixel grid onto a rectangle of (V1, V2) gate
// voltage space. Pixel (x, y) is centred at
// (V1Min + (x+0.5)·StepV1, V2Min + (y+0.5)·StepV2), with y increasing upward.
// The pixel pitch is the paper's voltage granularity δ.
type Window struct {
	V1Min float64 `json:"v1Min"`
	V1Max float64 `json:"v1Max"`
	V2Min float64 `json:"v2Min"`
	V2Max float64 `json:"v2Max"`
	Cols  int     `json:"cols"`
	Rows  int     `json:"rows"`
}

// NewSquareWindow returns an n×n window covering [v1Min, v1Min+span] ×
// [v2Min, v2Min+span].
func NewSquareWindow(v1Min, v2Min, span float64, n int) Window {
	return Window{
		V1Min: v1Min, V1Max: v1Min + span,
		V2Min: v2Min, V2Max: v2Min + span,
		Cols: n, Rows: n,
	}
}

// Validate reports whether the window is well-formed.
func (w Window) Validate() error {
	if w.Cols <= 1 || w.Rows <= 1 {
		return errors.New("csd: window needs at least 2x2 pixels")
	}
	if w.V1Max <= w.V1Min || w.V2Max <= w.V2Min {
		return fmt.Errorf("csd: degenerate voltage range [%v,%v]x[%v,%v]",
			w.V1Min, w.V1Max, w.V2Min, w.V2Max)
	}
	return nil
}

// StepV1 returns the voltage granularity δ along V1 (mV per pixel).
func (w Window) StepV1() float64 { return (w.V1Max - w.V1Min) / float64(w.Cols) }

// StepV2 returns the voltage granularity δ along V2.
func (w Window) StepV2() float64 { return (w.V2Max - w.V2Min) / float64(w.Rows) }

// V1At returns the V1 voltage of pixel column x (pixel centre). Coordinates
// outside the window extrapolate linearly, which lets the feature gradient
// probe one pixel past the edge exactly as a real instrument would.
func (w Window) V1At(x int) float64 { return w.V1Min + (float64(x)+0.5)*w.StepV1() }

// V2At returns the V2 voltage of pixel row y.
func (w Window) V2At(y int) float64 { return w.V2Min + (float64(y)+0.5)*w.StepV2() }

// XOf returns the pixel column containing voltage v1, clamped to the grid.
func (w Window) XOf(v1 float64) int {
	x := int((v1 - w.V1Min) / w.StepV1())
	if x < 0 {
		x = 0
	}
	if x >= w.Cols {
		x = w.Cols - 1
	}
	return x
}

// YOf returns the pixel row containing voltage v2, clamped to the grid.
func (w Window) YOf(v2 float64) int {
	y := int((v2 - w.V2Min) / w.StepV2())
	if y < 0 {
		y = 0
	}
	if y >= w.Rows {
		y = w.Rows - 1
	}
	return y
}

// PixelSlopeToVoltage converts a transition-line slope measured in pixel
// units (dy/dx) to voltage units (dV2/dV1).
func (w Window) PixelSlopeToVoltage(m float64) float64 {
	return m * w.StepV2() / w.StepV1()
}

// VoltageSlopeToPixel converts dV2/dV1 to pixel units dy/dx.
func (w Window) VoltageSlopeToPixel(m float64) float64 {
	return m * w.StepV1() / w.StepV2()
}

// CurrentGetter measures the charge-sensor current at a gate-voltage
// configuration, after the instrument's dwell time (Algorithm 1 of the
// paper). Implementations live in internal/device.
type CurrentGetter interface {
	GetCurrent(v1, v2 float64) float64
}

// RowGetter is implemented by instruments that serve a whole scan row in
// one call, bit-identically to the equivalent GetCurrent sequence (same
// currents, same accounting, same noise realisation). Acquisition routes
// through it when available, replacing per-pixel interface dispatch with
// one call per row. Implementations must not retain v1s or out.
type RowGetter interface {
	CurrentRow(v2 float64, v1s, out []float64)
}

// GridAcquirer is implemented by instruments that acquire a full scan
// window in one batched call, bit-identically to the scalar raster. No
// implementation fans out: Acquire passes workers = 1, and every
// implementation acquires serially in probe order whatever it is given.
type GridAcquirer interface {
	AcquireGrid(w Window, workers int) (*grid.Grid, error)
}

// Acquire rasters the full window through src, bottom row first, on the
// calling goroutine — the complete-CSD acquisition the baseline method
// performs. Every pixel is probed exactly once. Instruments implementing
// the batch contracts are served through them: a GridAcquirer (a recorded
// dataset) in one call, a RowGetter (a simulator) one row per call. The
// result is bit-identical either way.
func Acquire(src CurrentGetter, w Window) (*grid.Grid, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if ga, ok := src.(GridAcquirer); ok {
		return ga.AcquireGrid(w, 1)
	}
	g := grid.New(w.Cols, w.Rows)
	if rg, ok := src.(RowGetter); ok {
		v1s := make([]float64, w.Cols)
		for x := range v1s {
			v1s[x] = w.V1At(x)
		}
		data := g.Data()
		for y := 0; y < w.Rows; y++ {
			rg.CurrentRow(w.V2At(y), v1s, data[y*w.Cols:(y+1)*w.Cols])
		}
		return g, nil
	}
	for y := 0; y < w.Rows; y++ {
		v2 := w.V2At(y)
		for x := 0; x < w.Cols; x++ {
			g.Set(x, y, src.GetCurrent(w.V1At(x), v2))
		}
	}
	return g, nil
}

// PixelSource adapts a CurrentGetter and a Window to pixel-indexed probing,
// the coordinate system the extraction algorithms work in.
type PixelSource struct {
	Src CurrentGetter
	Win Window
}

// Current probes the pixel centred at column x, row y.
func (p PixelSource) Current(x, y int) float64 {
	return p.Src.GetCurrent(p.Win.V1At(x), p.Win.V2At(y))
}

// rowVoltages holds the voltage lists Row hands to a RowGetter, so that a
// row segment costs no heap allocation.
var rowVoltages = sync.Pool{New: func() any { return new([]float64) }}

// Row probes the len(out) pixels of row y starting at column x0 into out,
// pulling the whole row through the instrument's RowGetter fast path when
// it has one. Results are bit-identical to per-pixel Current calls in
// column order.
func (p PixelSource) Row(y, x0 int, out []float64) {
	if rg, ok := p.Src.(RowGetter); ok {
		buf := rowVoltages.Get().(*[]float64)
		if cap(*buf) < len(out) {
			*buf = make([]float64, len(out))
		}
		v1s := (*buf)[:len(out)]
		for i := range v1s {
			v1s[i] = p.Win.V1At(x0 + i)
		}
		rg.CurrentRow(p.Win.V2At(y), v1s, out)
		rowVoltages.Put(buf)
		return
	}
	v2 := p.Win.V2At(y)
	for i := range out {
		out[i] = p.Src.GetCurrent(p.Win.V1At(x0+i), v2)
	}
}

// GridSource adapts an in-memory grid to the pixel Source interface with
// edge clamping; used by unit tests and by offline re-analysis of acquired
// CSDs.
type GridSource struct {
	G *grid.Grid
}

// Current returns the stored value at (x, y), clamped at the edges.
func (s GridSource) Current(x, y int) float64 { return s.G.AtClamped(x, y) }
