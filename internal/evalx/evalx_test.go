package evalx

import (
	"math"
	"testing"

	"github.com/fastvg/fastvg/internal/baseline"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/qflow"
)

func TestAngleErrDeg(t *testing.T) {
	if e := AngleErrDeg(-1, -1); e != 0 {
		t.Errorf("identical slopes err = %v", e)
	}
	// Steep slopes: -8 vs -10 is a small angular difference.
	if e := AngleErrDeg(-8, -10); e > 2 {
		t.Errorf("steep slopes angular err = %v, want < 2°", e)
	}
	// Shallow slopes: -0.1 vs -0.3 is a large angular difference.
	if e := AngleErrDeg(-0.1, -0.3); e < 5 {
		t.Errorf("shallow slopes angular err = %v, want > 5°", e)
	}
}

func TestCheckSlopes(t *testing.T) {
	truth := qflow.Truth{SteepSlope: -8, ShallowSlope: -0.12}
	if ok, _, _ := CheckSlopes(-8.2, -0.125, truth, DefaultAngleTolDeg); !ok {
		t.Error("near-exact slopes rejected")
	}
	if ok, _, _ := CheckSlopes(-3, -0.12, truth, DefaultAngleTolDeg); ok {
		t.Error("bad steep slope accepted")
	}
	if ok, _, _ := CheckSlopes(-8, -0.5, truth, DefaultAngleTolDeg); ok {
		t.Error("bad shallow slope accepted")
	}
}

func TestRunFastOnCleanBenchmark(t *testing.T) {
	b, err := ByIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunFast(b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Success {
		t.Fatalf("fast extraction failed on clean benchmark 3: %s", rr.FailReason)
	}
	total := b.Size * b.Size
	if rr.Probes <= 0 || rr.Probes >= total/2 {
		t.Errorf("probes = %d, want sparse (≪ %d)", rr.Probes, total)
	}
	if math.Abs(rr.ProbePct-100*float64(rr.Probes)/float64(total)) > 1e-9 {
		t.Errorf("probe pct inconsistent: %v for %d probes", rr.ProbePct, rr.Probes)
	}
	if rr.Virtual.Seconds() <= 0 || rr.TotalS < rr.Virtual.Seconds() {
		t.Errorf("time accounting broken: virtual %v total %v", rr.Virtual, rr.TotalS)
	}
	if len(rr.ProbeMap) != rr.Probes {
		t.Errorf("probe map has %d entries, stats say %d", len(rr.ProbeMap), rr.Probes)
	}
}

func TestRunBaselineOnCleanBenchmark(t *testing.T) {
	b, err := ByIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunBaseline(b, baseline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Success {
		t.Fatalf("baseline failed on clean benchmark 3: %s", rr.FailReason)
	}
	if rr.Probes != b.Size*b.Size {
		t.Errorf("baseline probed %d, want full raster %d", rr.Probes, b.Size*b.Size)
	}
	if math.Abs(rr.ProbePct-100) > 1e-9 {
		t.Errorf("baseline probe pct = %v", rr.ProbePct)
	}
}

func TestRunFastFailsOnNoisyBenchmark(t *testing.T) {
	b, err := ByIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunFast(b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Success {
		t.Error("fast extraction succeeded on the heavy-noise benchmark 1")
	}
	if rr.FailReason == "" {
		t.Error("failed run has no reason")
	}
}

func TestSpeedupRule(t *testing.T) {
	row := Table1Row{
		Fast:     &RunResult{Success: true, TotalS: 50},
		Baseline: &RunResult{Success: true, TotalS: 500},
	}
	v, ok := row.Speedup()
	if !ok || math.Abs(v-10) > 1e-12 {
		t.Errorf("speedup = %v ok=%v, want 10", v, ok)
	}
	row.Fast.Success = false
	if _, ok := row.Speedup(); ok {
		t.Error("speedup applicable despite fast failure (paper reports N/A)")
	}
}

func TestProbeMask(t *testing.T) {
	b, err := ByIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunFast(b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mask := rr.ProbeMask()
	count := 0
	for _, v := range mask.Data() {
		if v == 1 {
			count++
		}
	}
	if count != rr.Probes {
		t.Errorf("mask has %d set pixels, want %d", count, rr.Probes)
	}
}

func TestByIndex(t *testing.T) {
	if _, err := ByIndex(99); err == nil {
		t.Error("accepted unknown index")
	}
	b, err := ByIndex(7)
	if err != nil {
		t.Fatal(err)
	}
	if b.Index != 7 {
		t.Errorf("ByIndex(7) returned %d", b.Index)
	}
}

func TestSuccessCounts(t *testing.T) {
	rows := []Table1Row{
		{Fast: &RunResult{Success: true}, Baseline: &RunResult{Success: false}},
		{Fast: &RunResult{Success: true}, Baseline: &RunResult{Success: true}},
		{Fast: &RunResult{Success: false}, Baseline: &RunResult{Success: false}},
	}
	f, b := SuccessCounts(rows)
	if f != 2 || b != 1 {
		t.Errorf("counts = (%d, %d), want (2, 1)", f, b)
	}
}

// TestTable1MatchesPaperPattern is the headline integration test: the full
// Table 1 run must reproduce the paper's success/fail pattern, per-benchmark.
func TestTable1MatchesPaperPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run in -short mode")
	}
	rows, err := RunTable1(core.Config{}, baseline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Fast.Success != r.Benchmark.Paper.FastSuccess {
			t.Errorf("CSD %d: fast success = %v, paper reports %v (%s)",
				r.Benchmark.Index, r.Fast.Success, r.Benchmark.Paper.FastSuccess, r.Fast.FailReason)
		}
		if r.Baseline.Success != r.Benchmark.Paper.BaselineSuccess {
			t.Errorf("CSD %d: baseline success = %v, paper reports %v (%s)",
				r.Benchmark.Index, r.Baseline.Success, r.Benchmark.Paper.BaselineSuccess, r.Baseline.FailReason)
		}
		// Probe fraction must stay in the paper's regime: a small fraction of
		// the full diagram (the paper reports 4.2%–17.1%).
		if r.Fast.ProbePct < 2 || r.Fast.ProbePct > 25 {
			t.Errorf("CSD %d: fast probed %.1f%%, outside the paper's regime", r.Benchmark.Index, r.Fast.ProbePct)
		}
		// Speedup shape: where applicable it must be substantial.
		if v, ok := r.Speedup(); ok && (v < 4 || v > 40) {
			t.Errorf("CSD %d: speedup %.1fx outside plausible range", r.Benchmark.Index, v)
		}
	}
}

func TestToleranceStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run in -short mode")
	}
	rows, err := RunTable1(core.Config{}, baseline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	study := ToleranceStudy(rows, []float64{1, 2, 3.5, 5, 10})
	if len(study) != 5 {
		t.Fatalf("study has %d rows", len(study))
	}
	// Success counts are monotone non-decreasing in the tolerance.
	for i := 1; i < len(study); i++ {
		if study[i].FastSuccess < study[i-1].FastSuccess {
			t.Errorf("fast success not monotone: %+v", study)
		}
		if study[i].BaseSuccess < study[i-1].BaseSuccess {
			t.Errorf("baseline success not monotone: %+v", study)
		}
	}
	// At the default tolerance the counts match the paper.
	for _, row := range study {
		if row.TolDeg == 3.5 {
			if row.FastSuccess != 10 || row.BaseSuccess != 9 {
				t.Errorf("at 3.5°: fast %d base %d, want 10/9", row.FastSuccess, row.BaseSuccess)
			}
		}
	}
	// The heavy-noise benchmarks stay failed even at 10°.
	last := study[len(study)-1]
	if last.FastSuccess > 10 {
		t.Errorf("at 10° fast success = %d; noisy benchmarks should stay failed", last.FastSuccess)
	}
}
