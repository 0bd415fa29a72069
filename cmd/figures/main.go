// Command figures regenerates the paper's figures from the simulation and
// extraction pipelines:
//
//	fig 1 — schematic layout of the quadruple-dot device (text; the paper's
//	        figure is an SEM micrograph, see DESIGN.md)
//	fig 2 — example double-dot charge stability diagram with region labels
//	fig 3 — CSD before and after the virtual-gate warp
//	fig 4 — the critical triangular region with anchor points
//	fig 5 — row-/column-major sweep walks on a small grid
//	fig 6 — post-processing stages (raw → filtered → fit)
//	fig 7 — probe maps of benchmarks CSD 6 and CSD 10
//
// Usage: figures [-fig N] [-out dir]   (fig 0 = all)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/evalx"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/postproc"
	"github.com/fastvg/fastvg/internal/qflow"
	"github.com/fastvg/fastvg/internal/sweep"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

func main() {
	figNum := flag.Int("fig", 0, "figure to regenerate (1-7; 0 = all)")
	outDir := flag.String("out", "figures_out", "output directory")
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	gens := map[int]func(string) error{
		1: fig1, 2: fig2, 3: fig3, 4: fig4, 5: fig5, 6: fig6, 7: fig7,
	}
	run := func(n int) {
		if err := gens[n](*outDir); err != nil {
			log.Fatalf("figure %d: %v", n, err)
		}
		fmt.Printf("figure %d written to %s/\n", n, *outDir)
	}
	if *figNum != 0 {
		if _, ok := gens[*figNum]; !ok {
			log.Fatalf("unknown figure %d", *figNum)
		}
		run(*figNum)
		return
	}
	for n := 1; n <= 7; n++ {
		run(n)
	}
}

// fig1 emits a schematic of the simulated quadruple-dot layout (the paper's
// Figure 1 is an SEM micrograph of the physical device).
func fig1(dir string) error {
	const schematic = `Quadruple-dot device layout (schematic; cf. paper Figure 1a)

   B1   P1   B2   P2   B3   P3   B4   P4   B5
  ====|----|====|----|====|----|====|----|====
 S     (1)      (2)      (3)      (4)       D     <- dot side
  -----------------------------------------------
        [C1]                       [C2]           <- charge sensors

S/D    source and drain reservoirs
Pn     plunger gates: set the potential of dot (n)
Bn     barrier gates: set the tunnel couplings
Cn     single-dot charge sensors; their conductance steps when any
       nearby dot's electron number changes

Cross-section (cf. Figure 1b): dots form in the strained Si quantum well
between Si0.7Ge0.3 barriers; gate voltages shape the potential landscape
that traps one electron under each plunger.
`
	return os.WriteFile(filepath.Join(dir, "fig1_device.txt"), []byte(schematic), 0o644)
}

// cleanBenchmark returns the clean 100×100 benchmark (CSD 6) used by several
// figures.
func cleanBenchmark() (*qflow.Benchmark, error) { return evalx.ByIndex(6) }

// fig2 renders an example CSD with charge-state region labels.
func fig2(dir string) error {
	b, err := cleanBenchmark()
	if err != nil {
		return err
	}
	g, err := b.Generate()
	if err != nil {
		return err
	}
	if err := writePNG(g, filepath.Join(dir, "fig2_csd.png")); err != nil {
		return err
	}
	txt := "Example charge stability diagram (benchmark CSD 6)\n" +
		"Regions (bottom-left origin): (0,0) lower-left, (1,0) lower-right,\n" +
		"(0,1) upper-left, (1,1) upper-right. Steep line = dot 1 addition,\n" +
		"shallow line = dot 2 addition.\n\n" + g.ASCII(80)
	return os.WriteFile(filepath.Join(dir, "fig2_csd.txt"), []byte(txt), 0o644)
}

// fig3 renders the CSD before and after the virtualization warp.
func fig3(dir string) error {
	b, err := cleanBenchmark()
	if err != nil {
		return err
	}
	inst, err := b.Instrument()
	if err != nil {
		return err
	}
	res, err := core.Extract(csd.PixelSource{Src: inst, Win: b.Window}, b.Window, core.Config{})
	if err != nil {
		return err
	}
	g, err := b.Generate()
	if err != nil {
		return err
	}
	if err := writePNG(g, filepath.Join(dir, "fig3_original.png")); err != nil {
		return err
	}
	// Pixel-space warp: convert the voltage-space matrix to pixel units
	// (identical for square isotropic windows).
	warped, err := virtualgate.Warp(g, res.Matrix)
	if err != nil {
		return err
	}
	return writePNG(warped, filepath.Join(dir, "fig3_virtualized.png"))
}

// fig4 draws the critical triangular region defined by the anchors.
func fig4(dir string) error {
	b, err := cleanBenchmark()
	if err != nil {
		return err
	}
	inst, err := b.Instrument()
	if err != nil {
		return err
	}
	res, err := core.Extract(csd.PixelSource{Src: inst, Win: b.Window}, b.Window, core.Config{})
	if err != nil {
		return err
	}
	g, err := b.Generate()
	if err != nil {
		return err
	}
	bot, left := res.Anchors.Bottom, res.Anchors.Left
	corner := grid.Point{X: bot.X, Y: left.Y}
	var tri []grid.Point
	tri = append(tri, grid.LinePoints(left, corner)...) // top edge
	tri = append(tri, grid.LinePoints(corner, bot)...)  // right edge
	tri = append(tri, grid.LinePoints(bot, left)...)    // hypotenuse
	f, err := os.Create(filepath.Join(dir, "fig4_critical_region.png"))
	if err != nil {
		return err
	}
	defer f.Close()
	return g.WritePNGWithOverlays(f,
		grid.Overlay{Points: tri, R: 255, G: 200},
		grid.Overlay{Points: []grid.Point{bot, left}, R: 255},
	)
}

// fig5 reproduces the small-grid sweep walk illustrations.
func fig5(dir string) error {
	// A 15×15 voltage space like the paper's Figure 5, with lines through
	// (12, 0) and (0, 12).
	src := func(x, y int) float64 {
		fx, fy := float64(x), float64(y)
		c := 2.0
		if fx > 12+fy/(-6) {
			c -= 0.8
		}
		if fy > 12-0.15*fx {
			c -= 0.8
		}
		return c
	}
	left := grid.Point{X: 0, Y: 12}
	bottom := grid.Point{X: 12, Y: 0}
	row, err := sweep.RowSweep(funcSource(src), left, bottom)
	if err != nil {
		return err
	}
	col, err := sweep.ColSweep(funcSource(src), left, bottom)
	if err != nil {
		return err
	}
	render := func(tr sweep.Trace) string {
		marks := map[grid.Point]byte{}
		for _, p := range tr.Probed {
			marks[p] = 'o'
		}
		for _, p := range tr.Chosen {
			marks[p] = '*'
		}
		marks[left] = 'A'
		marks[bottom] = 'A'
		out := ""
		for y := 14; y >= 0; y-- {
			for x := 0; x < 15; x++ {
				if m, ok := marks[grid.Point{X: x, Y: y}]; ok {
					out += string(m) + " "
				} else {
					out += ". "
				}
			}
			out += "\n"
		}
		return out
	}
	txt := "Row-major sweep (A = anchors, o = probed, * = saved transition point):\n\n" +
		render(row) + "\nColumn-major sweep:\n\n" + render(col)
	return os.WriteFile(filepath.Join(dir, "fig5_sweeps.txt"), []byte(txt), 0o644)
}

type funcSource func(x, y int) float64

func (f funcSource) Current(x, y int) float64 { return f(x, y) }

// fig6 renders the post-processing stages on benchmark CSD 6.
func fig6(dir string) error {
	b, err := cleanBenchmark()
	if err != nil {
		return err
	}
	inst, err := b.Instrument()
	if err != nil {
		return err
	}
	res, err := core.Extract(csd.PixelSource{Src: inst, Win: b.Window}, b.Window, core.Config{})
	if err != nil {
		return err
	}
	g, err := b.Generate()
	if err != nil {
		return err
	}
	write := func(name string, overlays ...grid.Overlay) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return g.WritePNGWithOverlays(f, overlays...)
	}
	// Stage 1: raw points from both sweeps (row red, column yellow).
	if err := write("fig6_raw.png",
		grid.Overlay{Points: res.RowTrace.Chosen, R: 255},
		grid.Overlay{Points: res.ColTrace.Chosen, R: 255, G: 255},
	); err != nil {
		return err
	}
	// Stage 2: the two filtered sets.
	lowest, leftmost := postproc.FilterSets(res.RawPoints)
	if err := write("fig6_filtered.png",
		grid.Overlay{Points: lowest, R: 255},
		grid.Overlay{Points: leftmost, G: 255},
	); err != nil {
		return err
	}
	// Stage 3: joined result with the fitted 2-piece shape.
	fitLine := append(
		grid.LinePoints(res.Anchors.Bottom, roundPt(res.Knee.X, res.Knee.Y)),
		grid.LinePoints(roundPt(res.Knee.X, res.Knee.Y), res.Anchors.Left)...)
	return write("fig6_fit.png",
		grid.Overlay{Points: res.Points, R: 255, G: 255},
		grid.Overlay{Points: fitLine, R: 0, G: 255, B: 255},
	)
}

func roundPt(x, y float64) grid.Point {
	return grid.Point{X: int(x + 0.5), Y: int(y + 0.5)}
}

// fig7 renders the probe maps of benchmarks 6 and 10.
func fig7(dir string) error {
	for _, idx := range []int{6, 10} {
		b, err := evalx.ByIndex(idx)
		if err != nil {
			return err
		}
		rr, err := evalx.RunFast(b, core.Config{})
		if err != nil {
			return err
		}
		g, err := b.Generate()
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("fig7_csd%d.png", idx)))
		if err != nil {
			return err
		}
		err = g.WritePNGWithOverlays(f, grid.Overlay{Points: rr.ProbeMap, R: 255})
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func writePNG(g *grid.Grid, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return g.WritePNG(f)
}
