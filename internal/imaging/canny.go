package imaging

import (
	"math"

	"github.com/fastvg/fastvg/internal/grid"
)

// CannyConfig parameterises edge detection. Thresholds are expressed as
// fractions of the maximum gradient magnitude, the scale-free convention
// that makes the detector comparable across CSDs with different contrast —
// and, as the paper's CSD 7 shows, the convention that makes it blind to
// lines far fainter than the strongest one.
type CannyConfig struct {
	Sigma     float64 // Gaussian σ before differentiation
	HighRatio float64 // high threshold as fraction of max magnitude
	LowRatio  float64 // low threshold as fraction of the high threshold
}

// DefaultCannyConfig mirrors common OpenCV usage on stability diagrams.
func DefaultCannyConfig() CannyConfig {
	return CannyConfig{Sigma: 1.2, HighRatio: 0.30, LowRatio: 0.40}
}

// Canny runs the full edge-detection pipeline and returns a binary grid
// (1 = edge pixel). Every intermediate is a scratch grid, recycled as soon
// as the next stage has read it.
func Canny(g *grid.Grid, cfg CannyConfig) *grid.Grid {
	w, h := g.W, g.H
	blurred := gaussianBlurInto(grid.Scratch(w, h), g, cfg.Sigma)
	gx := convolveInto(grid.Scratch(w, h), blurred, sobelX)
	gy := convolveInto(grid.Scratch(w, h), blurred, sobelY)
	grid.Recycle(blurred)
	mag := gradientMagnitudeInto(grid.Scratch(w, h), gx, gy)
	nms := nonMaxSuppress(grid.Scratch(w, h), mag, gx, gy)
	grid.Recycle(mag)
	grid.Recycle(gx)
	grid.Recycle(gy)
	_, maxMag := nms.MinMax()
	hi := cfg.HighRatio * maxMag
	lo := cfg.LowRatio * hi
	edges := hysteresis(nms, lo, hi)
	grid.Recycle(nms)
	return edges
}

// nonMaxSuppress thins the gradient magnitude to single-pixel ridges by
// zeroing pixels that are not local maxima along their gradient direction,
// quantised to 4 directions. It writes the ridges into out, a zero-filled
// grid of mag's size, and returns it.
func nonMaxSuppress(out, mag, gx, gy *grid.Grid) *grid.Grid {
	for y := 0; y < mag.H; y++ {
		for x := 0; x < mag.W; x++ {
			m := mag.At(x, y)
			if m == 0 {
				continue
			}
			angle := math.Atan2(gy.At(x, y), gx.At(x, y)) // [-π, π]
			if angle < 0 {
				angle += math.Pi // direction is mod π
			}
			var dx, dy int
			switch {
			case angle < math.Pi/8 || angle >= 7*math.Pi/8:
				dx, dy = 1, 0 // gradient ~horizontal
			case angle < 3*math.Pi/8:
				dx, dy = 1, 1 // diagonal /
			case angle < 5*math.Pi/8:
				dx, dy = 0, 1 // vertical
			default:
				dx, dy = -1, 1 // diagonal \
			}
			if m >= mag.AtClamped(x+dx, y+dy) && m >= mag.AtClamped(x-dx, y-dy) {
				out.Set(x, y, m)
			}
		}
	}
	return out
}

// hysteresis applies double thresholding with connectivity: pixels above hi
// are strong seeds; pixels above lo survive if 8-connected to a seed.
func hysteresis(nms *grid.Grid, lo, hi float64) *grid.Grid {
	out := grid.New(nms.W, nms.H)
	var stack []grid.Point
	for y := 0; y < nms.H; y++ {
		for x := 0; x < nms.W; x++ {
			if nms.At(x, y) >= hi {
				out.Set(x, y, 1)
				stack = append(stack, grid.Point{X: x, Y: y})
			}
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := p.X+dx, p.Y+dy
				if !nms.In(nx, ny) || out.At(nx, ny) == 1 {
					continue
				}
				if nms.At(nx, ny) >= lo {
					out.Set(nx, ny, 1)
					stack = append(stack, grid.Point{X: nx, Y: ny})
				}
			}
		}
	}
	return out
}

// EdgePoints lists the set pixels of a binary edge grid.
func EdgePoints(edges *grid.Grid) []grid.Point {
	var pts []grid.Point
	for y := 0; y < edges.H; y++ {
		for x := 0; x < edges.W; x++ {
			if edges.At(x, y) != 0 {
				pts = append(pts, grid.Point{X: x, Y: y})
			}
		}
	}
	return pts
}

// Otsu returns the threshold maximising between-class variance over a
// 256-bin histogram of the grid values; provided for threshold ablations.
func Otsu(g *grid.Grid) float64 {
	lo, hi := g.MinMax()
	if hi == lo {
		return lo
	}
	const bins = 256
	var hist [bins]int
	scale := float64(bins-1) / (hi - lo)
	for _, v := range g.Data() {
		hist[int((v-lo)*scale)]++
	}
	total := g.W * g.H
	var sumAll float64
	for i, c := range hist {
		sumAll += float64(i) * float64(c)
	}
	var sumB, wB float64
	best, bestVar := 0, -1.0
	for i := 0; i < bins; i++ {
		wB += float64(hist[i])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(i) * float64(hist[i])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		v := wB * wF * (mB - mF) * (mB - mF)
		if v > bestVar {
			bestVar = v
			best = i
		}
	}
	return lo + (float64(best)+0.5)/scale
}
