// Package imaging implements the classical image-processing pipeline the
// paper's baseline method uses: Gaussian smoothing, Sobel gradients, Canny
// edge detection, and a (ρ, θ) Hough transform with peak extraction — all
// from scratch on the grid.Grid raster type.
package imaging

import (
	"context"
	"math"
	"runtime"

	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/sched"
)

// parallelRows runs fn over disjoint row chunks of [0, h) on an
// internal/sched pool with the given worker budget (0 = one per CPU,
// 1 = serial). Every output pixel is written by exactly one worker from
// read-only inputs, so results are bit-identical to the serial loop; small
// images and serial budgets take the inline path.
func parallelRows(h, workers int, fn func(y0, y1 int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > h {
		workers = h
	}
	// Below ~64 rows the goroutine fan-out costs more than it saves.
	if workers <= 1 || h < 64 {
		fn(0, h)
		return
	}
	pool := sched.New(workers)
	per := (h + workers - 1) / workers
	_ = pool.Map(context.Background(), workers, func(_ context.Context, c int) error {
		y0 := c * per
		y1 := y0 + per
		if y1 > h {
			y1 = h
		}
		if y0 < y1 {
			fn(y0, y1)
		}
		return nil
	})
}

// Kernel is a dense 2-D convolution kernel with odd dimensions; the anchor
// is the centre cell. Rows are ordered bottom-up like grid.Grid.
type Kernel struct {
	W, H    int
	Weights []float64
}

// NewKernel wraps weights (row-major, bottom row first) as a kernel.
// It panics if the dimensions are even or do not match the weight count.
func NewKernel(w, h int, weights []float64) Kernel {
	if w%2 == 0 || h%2 == 0 {
		panic("imaging: kernel dimensions must be odd")
	}
	if len(weights) != w*h {
		panic("imaging: kernel weight count mismatch")
	}
	return Kernel{W: w, H: h, Weights: weights}
}

// At returns the weight at kernel-local (kx, ky), with (0, 0) the bottom-left.
func (k Kernel) At(kx, ky int) float64 { return k.Weights[ky*k.W+kx] }

// Convolve cross-correlates g with k (the convention OpenCV's filter2D uses),
// clamping at the borders, and returns a new grid. Output rows are rendered
// in parallel on multi-CPU machines; the result is bit-identical to the
// serial loop.
func Convolve(g *grid.Grid, k Kernel) *grid.Grid {
	return ConvolveWorkers(g, k, 0)
}

// ConvolveWorkers is Convolve with an explicit row-render worker budget
// (0 = one per CPU, 1 = serial). The output is identical at any setting.
func ConvolveWorkers(g *grid.Grid, k Kernel, workers int) *grid.Grid {
	return convolveInto(grid.New(g.W, g.H), g, k, workers)
}

// convolveInto is ConvolveWorkers writing every pixel of out, a grid of
// g's size, and returning it.
func convolveInto(out, g *grid.Grid, k Kernel, workers int) *grid.Grid {
	cx, cy := k.W/2, k.H/2
	parallelRows(g.H, workers, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < g.W; x++ {
				var s float64
				for ky := 0; ky < k.H; ky++ {
					for kx := 0; kx < k.W; kx++ {
						s += k.At(kx, ky) * g.AtClamped(x+kx-cx, y+ky-cy)
					}
				}
				out.Set(x, y, s)
			}
		}
	})
	return out
}

// GaussianKernel1D returns a normalised 1-D Gaussian kernel with the given σ
// and radius ceil(3σ).
func GaussianKernel1D(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	r := int(math.Ceil(3 * sigma))
	k := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-0.5 * float64(i*i) / (sigma * sigma))
		k[i+r] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// GaussianBlur smooths g with a separable Gaussian of the given σ. Both
// separable passes render rows in parallel on multi-CPU machines; the
// result is bit-identical to the serial loops.
func GaussianBlur(g *grid.Grid, sigma float64) *grid.Grid {
	return GaussianBlurWorkers(g, sigma, 0)
}

// GaussianBlurWorkers is GaussianBlur with an explicit row-render worker
// budget (0 = one per CPU, 1 = serial). The output is identical at any
// setting.
func GaussianBlurWorkers(g *grid.Grid, sigma float64, workers int) *grid.Grid {
	return gaussianBlurInto(grid.New(g.W, g.H), g, sigma, workers)
}

// gaussianBlurInto is GaussianBlurWorkers writing every pixel of out, a
// grid of g's size, and returning it. The horizontal pass's intermediate
// is a scratch grid.
func gaussianBlurInto(out, g *grid.Grid, sigma float64, workers int) *grid.Grid {
	k := GaussianKernel1D(sigma)
	r := len(k) / 2
	tmp := grid.Scratch(g.W, g.H)
	defer grid.Recycle(tmp)
	parallelRows(g.H, workers, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < g.W; x++ {
				var s float64
				for i := -r; i <= r; i++ {
					s += k[i+r] * g.AtClamped(x+i, y)
				}
				tmp.Set(x, y, s)
			}
		}
	})
	parallelRows(g.H, workers, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < g.W; x++ {
				var s float64
				for i := -r; i <= r; i++ {
					s += k[i+r] * tmp.AtClamped(x, y+i)
				}
				out.Set(x, y, s)
			}
		}
	})
	return out
}

// Sobel returns the horizontal and vertical derivative images. gx is the
// derivative along +x; gy along +y (upward).
func Sobel(g *grid.Grid) (gx, gy *grid.Grid) {
	return SobelWorkers(g, 0)
}

// The Sobel kernels, bottom row first: the +y derivative kernel has -1s
// on the bottom row.
var (
	sobelX = NewKernel(3, 3, []float64{
		-1, 0, 1,
		-2, 0, 2,
		-1, 0, 1,
	})
	sobelY = NewKernel(3, 3, []float64{
		-1, -2, -1,
		0, 0, 0,
		1, 2, 1,
	})
)

// SobelWorkers is Sobel with an explicit row-render worker budget.
func SobelWorkers(g *grid.Grid, workers int) (gx, gy *grid.Grid) {
	return ConvolveWorkers(g, sobelX, workers), ConvolveWorkers(g, sobelY, workers)
}

// GradientMagnitude returns sqrt(gx² + gy²) per pixel.
func GradientMagnitude(gx, gy *grid.Grid) *grid.Grid {
	return gradientMagnitudeInto(grid.New(gx.W, gx.H), gx, gy)
}

// gradientMagnitudeInto is GradientMagnitude writing every pixel of out,
// a grid of gx's size, and returning it.
func gradientMagnitudeInto(out, gx, gy *grid.Grid) *grid.Grid {
	out.Apply(func(x, y int, _ float64) float64 {
		return math.Hypot(gx.At(x, y), gy.At(x, y))
	})
	return out
}
