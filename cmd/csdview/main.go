// Command csdview renders a charge stability diagram in the terminal: either
// a benchmark from the synthetic suite or a PGM file produced by qflowgen.
//
// Usage:
//
//	csdview -csd 6 [-width 100]
//	csdview -file qflow_data/csd-06.pgm
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/fastvg/fastvg/internal/evalx"
	"github.com/fastvg/fastvg/internal/grid"
)

func main() {
	csdIdx := flag.Int("csd", 0, "benchmark CSD index (1-12)")
	file := flag.String("file", "", "PGM file to render instead")
	width := flag.Int("width", 100, "maximum terminal columns")
	flag.Parse()

	var g *grid.Grid
	switch {
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		g, err = grid.ReadPGM(f)
		if err != nil {
			log.Fatal(err)
		}
	case *csdIdx != 0:
		b, err := evalx.ByIndex(*csdIdx)
		if err != nil {
			log.Fatal(err)
		}
		g, err = b.Generate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchmark %s (%dx%d): steep %.3f, shallow %.4f, triple point (%.1f, %.1f) mV\n\n",
			b.Name, b.Size, b.Size, b.Truth.SteepSlope, b.Truth.ShallowSlope,
			b.Truth.TripleV1, b.Truth.TripleV2)
	default:
		flag.Usage()
		os.Exit(2)
	}
	fmt.Print(g.ASCII(*width))
}
