// Package imaging implements the classical image-processing pipeline the
// paper's baseline method uses: Gaussian smoothing, Sobel gradients, Canny
// edge detection, and a (ρ, θ) Hough transform with peak extraction — all
// from scratch on the grid.Grid raster type.
package imaging

import (
	"math"

	"github.com/fastvg/fastvg/internal/grid"
)

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
// clamping at the borders, and returns a new grid. It renders one row
// after another on the calling goroutine.
func Convolve(g *grid.Grid, k Kernel) *grid.Grid {
	return convolveInto(grid.New(g.W, g.H), g, k)
}

// convolveInto is Convolve writing every pixel of out, a grid of g's size,
// and returning it.
func convolveInto(out, g *grid.Grid, k Kernel) *grid.Grid {
	cx, cy := k.W/2, k.H/2
	for y := 0; y < g.H; y++ {
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

// GaussianBlur smooths g with a separable Gaussian of the given σ: a
// horizontal pass, then a vertical one, each a serial loop over the rows.
func GaussianBlur(g *grid.Grid, sigma float64) *grid.Grid {
	return gaussianBlurInto(grid.New(g.W, g.H), g, sigma)
}

// gaussianBlurInto is GaussianBlur writing every pixel of out, a grid of
// g's size, and returning it. The horizontal pass's intermediate is a
// scratch grid.
func gaussianBlurInto(out, g *grid.Grid, sigma float64) *grid.Grid {
	k := GaussianKernel1D(sigma)
	r := len(k) / 2
	tmp := grid.Scratch(g.W, g.H)
	defer grid.Recycle(tmp)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var s float64
			for i := -r; i <= r; i++ {
				s += k[i+r] * g.AtClamped(x+i, y)
			}
			tmp.Set(x, y, s)
		}
	}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var s float64
			for i := -r; i <= r; i++ {
				s += k[i+r] * tmp.AtClamped(x, y+i)
			}
			out.Set(x, y, s)
		}
	}
	return out
}

// Sobel returns the horizontal and vertical derivative images. gx is the
// derivative along +x; gy along +y (upward).
func Sobel(g *grid.Grid) (gx, gy *grid.Grid) {
	return Convolve(g, sobelX), Convolve(g, sobelY)
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
