// Package grid provides the float64 raster type shared by the CSD
// acquisition, image-processing and reporting layers.
//
// A Grid uses Cartesian indexing: x is the column (0 at the left), y is the
// row with y increasing upward, matching the paper's Figure 5 voltage-space
// diagrams. Export helpers flip rows where an image format expects the top
// row first.
package grid

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Point is an integer pixel coordinate (x = column, y = row, y up).
type Point struct {
	X, Y int
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy int) Point { return Point{p.X + dx, p.Y + dy} }

// Grid is a dense W×H float64 raster.
type Grid struct {
	W, H int
	data []float64
}

// New returns a zero-filled W×H grid.
func New(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid size %dx%d", w, h))
	}
	return &Grid{W: w, H: h, data: make([]float64, w*h)}
}

// scratch holds recycled grids. The collector empties a sync.Pool, so it
// keeps no more than recently finished pipelines handed back.
var scratch sync.Pool // of *Grid

// Scratch returns a zero-filled w×h grid, in the memory of a recycled grid
// when one is large enough. Pipelines take their intermediates from it and
// hand them back with Recycle once nothing reads them.
func Scratch(w, h int) *Grid {
	g, _ := scratch.Get().(*Grid)
	if g == nil || cap(g.data) < w*h {
		return New(w, h)
	}
	g.W, g.H = w, h
	g.data = g.data[:w*h]
	clear(g.data)
	return g
}

// Recycle hands g to Scratch. Neither the caller nor anything it returned
// may use g afterwards.
func Recycle(g *Grid) { scratch.Put(g) }

// FromData wraps a row-major (bottom row first) data slice; it panics if the
// length does not equal w*h.
func FromData(w, h int, data []float64) *Grid {
	if len(data) != w*h {
		panic(fmt.Sprintf("grid: data length %d != %d*%d", len(data), w, h))
	}
	return &Grid{W: w, H: h, data: data}
}

// In reports whether (x, y) lies inside the grid.
func (g *Grid) In(x, y int) bool { return x >= 0 && x < g.W && y >= 0 && y < g.H }

// At returns the value at (x, y). It panics on out-of-range access.
func (g *Grid) At(x, y int) float64 {
	if !g.In(x, y) {
		panic(fmt.Sprintf("grid: At(%d,%d) out of %dx%d", x, y, g.W, g.H))
	}
	return g.data[y*g.W+x]
}

// AtClamped returns the value at (x, y) with coordinates clamped to the grid
// edge — the boundary convention used by convolution and by dataset-backed
// instruments probed one pixel past the window.
func (g *Grid) AtClamped(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.H {
		y = g.H - 1
	}
	return g.data[y*g.W+x]
}

// Set stores v at (x, y). It panics on out-of-range access.
func (g *Grid) Set(x, y int, v float64) {
	if !g.In(x, y) {
		panic(fmt.Sprintf("grid: Set(%d,%d) out of %dx%d", x, y, g.W, g.H))
	}
	g.data[y*g.W+x] = v
}

// Data exposes the underlying row-major (bottom row first) storage.
func (g *Grid) Data() []float64 { return g.data }

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	c := New(g.W, g.H)
	copy(c.data, g.data)
	return c
}

// Fill sets every cell to v.
func (g *Grid) Fill(v float64) {
	for i := range g.data {
		g.data[i] = v
	}
}

// Apply replaces every cell with f(x, y, value).
func (g *Grid) Apply(f func(x, y int, v float64) float64) {
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			i := y*g.W + x
			g.data[i] = f(x, y, g.data[i])
		}
	}
}

// MinMax returns the minimum and maximum cell values.
func (g *Grid) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range g.data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Mean returns the mean cell value.
func (g *Grid) Mean() float64 {
	var s float64
	for _, v := range g.data {
		s += v
	}
	return s / float64(len(g.data))
}

// Std returns the population standard deviation of cell values.
func (g *Grid) Std() float64 {
	m := g.Mean()
	var ss float64
	for _, v := range g.data {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(len(g.data)))
}

// Percentile returns the p-th percentile (0..100) of cell values.
func (g *Grid) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic("grid: percentile out of range")
	}
	s := append([]float64(nil), g.data...)
	sort.Float64s(s)
	idx := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Normalized returns a copy rescaled to [0, 1]; a constant grid maps to 0.
func (g *Grid) Normalized() *Grid {
	return g.NormalizedInto(New(g.W, g.H))
}

// NormalizedInto writes Normalized's values into dst, a grid of g's size,
// and returns dst.
func (g *Grid) NormalizedInto(dst *Grid) *Grid {
	lo, hi := g.MinMax()
	if hi == lo {
		dst.Fill(0)
		return dst
	}
	scale := 1 / (hi - lo)
	for i, v := range g.data {
		dst.data[i] = (v - lo) * scale
	}
	return dst
}

// Crop returns the sub-grid [x0, x0+w) × [y0, y0+h).
func (g *Grid) Crop(x0, y0, w, h int) (*Grid, error) {
	if x0 < 0 || y0 < 0 || w <= 0 || h <= 0 || x0+w > g.W || y0+h > g.H {
		return nil, errors.New("grid: crop rectangle out of bounds")
	}
	c := New(w, h)
	for y := 0; y < h; y++ {
		copy(c.data[y*w:(y+1)*w], g.data[(y0+y)*g.W+x0:(y0+y)*g.W+x0+w])
	}
	return c, nil
}

// CropCenterFrac returns the central frac×frac portion of the grid (the
// paper crops its CSDs to the central 50% region containing the 2×2 charge
// states).
func (g *Grid) CropCenterFrac(frac float64) (*Grid, error) {
	if frac <= 0 || frac > 1 {
		return nil, errors.New("grid: crop fraction must be in (0, 1]")
	}
	w := int(math.Round(float64(g.W) * frac))
	h := int(math.Round(float64(g.H) * frac))
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return g.Crop((g.W-w)/2, (g.H-h)/2, w, h)
}

// Equal reports whether two grids have identical dimensions and contents.
func (g *Grid) Equal(o *Grid) bool {
	if g.W != o.W || g.H != o.H {
		return false
	}
	for i := range g.data {
		if g.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// BilinearAt samples the grid at fractional coordinates with edge clamping;
// pixel (x, y) is centred at coordinate (x, y).
func (g *Grid) BilinearAt(x, y float64) float64 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)
	v00 := g.AtClamped(x0, y0)
	v10 := g.AtClamped(x0+1, y0)
	v01 := g.AtClamped(x0, y0+1)
	v11 := g.AtClamped(x0+1, y0+1)
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// LinePoints rasterises the segment from a to b (inclusive) with Bresenham's
// algorithm; used to draw triangle edges and fitted lines in figure overlays.
func LinePoints(a, b Point) []Point {
	dx := absInt(b.X - a.X)
	dy := -absInt(b.Y - a.Y)
	sx, sy := 1, 1
	if a.X > b.X {
		sx = -1
	}
	if a.Y > b.Y {
		sy = -1
	}
	err := dx + dy
	var pts []Point
	x, y := a.X, a.Y
	for {
		pts = append(pts, Point{X: x, Y: y})
		if x == b.X && y == b.Y {
			return pts
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x += sx
		}
		if e2 <= dx {
			err += dx
			y += sy
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
