// Command table1 reproduces the paper's Table 1: it runs the fast virtual
// gate extraction and the Hough-transform baseline on all 12 synthetic qflow
// benchmarks and prints the result summary.
//
// Usage:
//
//	table1 [-v] [-format text|markdown|csv]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/fastvg/fastvg/internal/baseline"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/evalx"
	"github.com/fastvg/fastvg/internal/report"
)

func main() {
	verbose := flag.Bool("v", false, "print per-benchmark diagnostics")
	format := flag.String("format", "text", "output format: text, markdown or csv")
	flag.Parse()

	rows, err := evalx.RunTable1(core.Config{}, baseline.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}

	tbl := report.NewTable("CSD", "Size", "Fast", "Base",
		"Probed (fast)", "Base pts", "Fast time", "Base time", "Speedup")
	for _, r := range rows {
		sp := "N/A"
		if v, ok := r.Speedup(); ok {
			sp = fmt.Sprintf("%.2fx", v)
		}
		if err := tbl.AddRow(
			fmt.Sprintf("%d", r.Benchmark.Index),
			fmt.Sprintf("%dx%d", r.Benchmark.Size, r.Benchmark.Size),
			passFail(r.Fast.Success),
			passFail(r.Baseline.Success),
			fmt.Sprintf("%d (%.2f%%)", r.Fast.Probes, r.Fast.ProbePct),
			fmt.Sprintf("%d", r.Baseline.Probes),
			fmt.Sprintf("%.2fs", r.Fast.TotalS),
			fmt.Sprintf("%.2fs", r.Baseline.TotalS),
			sp,
		); err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
	}
	if err := tbl.Write(os.Stdout, report.Format(*format)); err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	fast, base := evalx.SuccessCounts(rows)
	fmt.Printf("\nSuccess: fast %d/12 (paper: 10/12), baseline %d/12 (paper: 9/12)\n", fast, base)

	if *verbose {
		for _, r := range rows {
			fmt.Printf("\nCSD %d: truth steep=%.3f shallow=%.3f\n", r.Benchmark.Index,
				r.Benchmark.Truth.SteepSlope, r.Benchmark.Truth.ShallowSlope)
			fmt.Printf("  fast: steep=%.3f shallow=%.3f err=(%.2f°, %.2f°) %v %s\n",
				r.Fast.SteepSlope, r.Fast.ShallowSlope, r.Fast.SteepErrDeg, r.Fast.ShallowErrDeg,
				r.Fast.Success, r.Fast.FailReason)
			fmt.Printf("  base: steep=%.3f shallow=%.3f err=(%.2f°, %.2f°) %v %s\n",
				r.Baseline.SteepSlope, r.Baseline.ShallowSlope, r.Baseline.SteepErrDeg, r.Baseline.ShallowErrDeg,
				r.Baseline.Success, r.Baseline.FailReason)
		}
	}
}

func passFail(ok bool) string {
	if ok {
		return "Success"
	}
	return "Fail"
}
