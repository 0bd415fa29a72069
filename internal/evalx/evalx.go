// Package evalx is the experiment harness: it runs the fast extraction and
// the Hough baseline on qflow benchmarks, scores success against the
// analytic ground truth (replacing the paper's manual inspection of the
// warped diagram) and accounts for probes and virtual runtime — the rows
// of the paper's Table 1, which internal/report renders.
package evalx

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/fastvg/fastvg/internal/baseline"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/qflow"
)

// DefaultAngleTolDeg is the success tolerance: both extracted lines must be
// within this angle of the ground-truth lines. 3.5° is roughly the error at
// which the residual cross-coupling after virtualization becomes visible in
// a warped CSD — the condition the paper checked by eye.
const DefaultAngleTolDeg = 3.5

// Method names a pipeline.
type Method string

// The two evaluated methods.
const (
	MethodFast     Method = "fast"
	MethodBaseline Method = "baseline"
)

// RunResult is the outcome of one (benchmark, method) run.
type RunResult struct {
	Benchmark *qflow.Benchmark
	Method    Method

	Success    bool
	FailReason string

	Probes   int
	ProbePct float64
	Virtual  time.Duration // dwell time on the virtual clock
	Compute  time.Duration // wall-clock algorithm time
	TotalS   float64       // seconds, virtual + compute

	SteepSlope    float64
	ShallowSlope  float64
	SteepErrDeg   float64
	ShallowErrDeg float64

	Fast *core.Result     // populated for MethodFast
	Base *baseline.Result // populated for MethodBaseline

	ProbeMap []grid.Point // pixels actually measured (Figure 7 data)
}

// AngleErrDeg returns the angular difference between two slopes in degrees;
// the angle metric treats steep and shallow lines symmetrically.
func AngleErrDeg(got, want float64) float64 {
	return math.Abs(math.Atan(got)-math.Atan(want)) * 180 / math.Pi
}

// CheckSlopes scores extracted slopes against ground truth.
func CheckSlopes(steep, shallow float64, truth qflow.Truth, tolDeg float64) (ok bool, steepErr, shallowErr float64) {
	steepErr = AngleErrDeg(steep, truth.SteepSlope)
	shallowErr = AngleErrDeg(shallow, truth.ShallowSlope)
	return steepErr <= tolDeg && shallowErr <= tolDeg, steepErr, shallowErr
}

// RunFast executes the fast extraction on a benchmark.
func RunFast(b *qflow.Benchmark, cfg core.Config) (*RunResult, error) {
	inst, err := b.Instrument()
	if err != nil {
		return nil, err
	}
	return runFastOn(b, inst, cfg), nil
}

// runFastOn runs the fast extraction against a prepared replay instrument.
func runFastOn(b *qflow.Benchmark, inst *device.DatasetInstrument, cfg core.Config) *RunResult {
	rr := &RunResult{Benchmark: b, Method: MethodFast}
	src := csd.PixelSource{Src: inst, Win: b.Window}
	t0 := time.Now()
	res, err := core.Extract(src, b.Window, cfg)
	rr.Compute = time.Since(t0)
	rr.Fast = res
	finishRun(rr, inst, err)
	if err == nil {
		rr.SteepSlope = res.SteepSlope
		rr.ShallowSlope = res.ShallowSlope
		rr.Success, rr.SteepErrDeg, rr.ShallowErrDeg =
			CheckSlopes(res.SteepSlope, res.ShallowSlope, b.Truth, DefaultAngleTolDeg)
		if !rr.Success {
			rr.FailReason = fmt.Sprintf("slope error %.1f°/%.1f° exceeds %.1f°",
				rr.SteepErrDeg, rr.ShallowErrDeg, DefaultAngleTolDeg)
		}
	}
	return rr
}

// RunBaseline executes the Hough baseline on a benchmark. The replay
// instrument serves the full-CSD acquisition in one call, so the harness
// measures the pipeline, not per-pixel dispatch overhead.
func RunBaseline(b *qflow.Benchmark, cfg baseline.Config) (*RunResult, error) {
	inst, err := b.Instrument()
	if err != nil {
		return nil, err
	}
	return runBaselineOn(b, inst, cfg), nil
}

// runBaselineOn runs the baseline against a prepared replay instrument.
func runBaselineOn(b *qflow.Benchmark, inst *device.DatasetInstrument, cfg baseline.Config) *RunResult {
	rr := &RunResult{Benchmark: b, Method: MethodBaseline}
	t0 := time.Now()
	res, err := baseline.Extract(inst, b.Window, cfg)
	rr.Compute = time.Since(t0)
	rr.Base = res
	finishRun(rr, inst, err)
	if err == nil {
		rr.SteepSlope = res.SteepSlope
		rr.ShallowSlope = res.ShallowSlope
		rr.Success, rr.SteepErrDeg, rr.ShallowErrDeg =
			CheckSlopes(res.SteepSlope, res.ShallowSlope, b.Truth, DefaultAngleTolDeg)
		if !rr.Success {
			rr.FailReason = fmt.Sprintf("slope error %.1f°/%.1f° exceeds %.1f°",
				rr.SteepErrDeg, rr.ShallowErrDeg, DefaultAngleTolDeg)
		}
	}
	return rr
}

func finishRun(rr *RunResult, inst *device.DatasetInstrument, err error) {
	st := inst.Stats()
	total := rr.Benchmark.Size * rr.Benchmark.Size
	rr.Probes = st.UniqueProbes
	rr.ProbePct = 100 * float64(st.UniqueProbes) / float64(total)
	rr.Virtual = st.Virtual
	rr.TotalS = st.Virtual.Seconds() + rr.Compute.Seconds()
	rr.ProbeMap = inst.ProbeMap()
	if err != nil {
		rr.Success = false
		rr.FailReason = err.Error()
	}
}

// Table1Row pairs the two methods' runs on one benchmark.
type Table1Row struct {
	Benchmark *qflow.Benchmark
	Fast      *RunResult
	Baseline  *RunResult
}

// Speedup returns baseline total runtime over fast total runtime, and
// whether it is applicable (the paper reports N/A when fast extraction
// failed).
func (r Table1Row) Speedup() (float64, bool) {
	if !r.Fast.Success || r.Fast.TotalS == 0 {
		return 0, false
	}
	return r.Baseline.TotalS / r.Fast.TotalS, true
}

// RunTable1 runs both methods on every benchmark of the suite. Each
// benchmark's CSD is rendered once, and each method probes its own
// DatasetInstrument over that grid, so probe accounting stays per method.
func RunTable1(fastCfg core.Config, baseCfg baseline.Config) ([]Table1Row, error) {
	suite, err := qflow.Suite()
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(suite))
	for _, b := range suite {
		g, err := b.Generate()
		if err != nil {
			return nil, fmt.Errorf("evalx: benchmark %d: %w", b.Index, err)
		}
		fi, err := device.NewDatasetInstrument(g, b.Window, device.DefaultDwell)
		if err != nil {
			return nil, fmt.Errorf("evalx: benchmark %d: %w", b.Index, err)
		}
		bi, err := device.NewDatasetInstrument(g, b.Window, device.DefaultDwell)
		if err != nil {
			return nil, fmt.Errorf("evalx: benchmark %d: %w", b.Index, err)
		}
		rows = append(rows, Table1Row{Benchmark: b,
			Fast: runFastOn(b, fi, fastCfg), Baseline: runBaselineOn(b, bi, baseCfg)})
	}
	return rows, nil
}

// ProbeMask renders a run's probe map as a binary grid (1 = probed), the
// data behind the paper's Figure 7.
func (rr *RunResult) ProbeMask() *grid.Grid {
	g := grid.New(rr.Benchmark.Size, rr.Benchmark.Size)
	for _, p := range rr.ProbeMap {
		g.Set(p.X, p.Y, 1)
	}
	return g
}

// SuccessCounts tallies per-method successes over a set of rows.
func SuccessCounts(rows []Table1Row) (fast, base int) {
	for _, r := range rows {
		if r.Fast.Success {
			fast++
		}
		if r.Baseline.Success {
			base++
		}
	}
	return fast, base
}

// ErrBenchmarkNotFound is returned by ByIndex for an unknown index.
var ErrBenchmarkNotFound = errors.New("evalx: benchmark index not in suite")

// ByIndex returns the suite benchmark with the given 1-based index.
func ByIndex(index int) (*qflow.Benchmark, error) {
	suite, err := qflow.Suite()
	if err != nil {
		return nil, err
	}
	for _, b := range suite {
		if b.Index == index {
			return b, nil
		}
	}
	return nil, ErrBenchmarkNotFound
}

// ToleranceRow is one point of the success-vs-tolerance study.
type ToleranceRow struct {
	TolDeg      float64
	FastSuccess int
	BaseSuccess int
}

// ToleranceStudy rescoring: success counts of both methods across the suite
// as the angular tolerance varies, from already-completed runs. It justifies
// the DefaultAngleTolDeg choice: the counts are flat around 3.5° (the paper's
// manual inspection regime) and only collapse well below 2°.
func ToleranceStudy(rows []Table1Row, tolsDeg []float64) []ToleranceRow {
	out := make([]ToleranceRow, 0, len(tolsDeg))
	for _, tol := range tolsDeg {
		var tr ToleranceRow
		tr.TolDeg = tol
		for _, r := range rows {
			if rescore(r.Fast, r.Benchmark, tol) {
				tr.FastSuccess++
			}
			if rescore(r.Baseline, r.Benchmark, tol) {
				tr.BaseSuccess++
			}
		}
		out = append(out, tr)
	}
	return out
}

// rescore re-applies the success check at a different tolerance. Runs that
// failed with an extraction error stay failed at any tolerance.
func rescore(rr *RunResult, b *qflow.Benchmark, tolDeg float64) bool {
	if rr.SteepSlope == 0 && rr.ShallowSlope == 0 {
		return false // extraction error: no slopes recorded
	}
	ok, _, _ := CheckSlopes(rr.SteepSlope, rr.ShallowSlope, b.Truth, tolDeg)
	return ok
}
