package fastvg

import (
	"context"
	"errors"
	"math"
	"testing"
)

func angleErrDeg(got, want float64) float64 {
	return math.Abs(math.Atan(got)-math.Atan(want)) * 180 / math.Pi
}

func TestExtractOnSimulatedDevice(t *testing.T) {
	inst, truth, err := NewDoubleDotSim(DoubleDotSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(inst, inst.Window(), Options{})
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if e := angleErrDeg(res.SteepSlope, truth.SteepSlope); e > 3.5 {
		t.Errorf("steep slope %v vs truth %v (Δ%.2f°)", res.SteepSlope, truth.SteepSlope, e)
	}
	if e := angleErrDeg(res.ShallowSlope, truth.ShallowSlope); e > 3.5 {
		t.Errorf("shallow slope %v vs truth %v (Δ%.2f°)", res.ShallowSlope, truth.ShallowSlope, e)
	}
	if res.Probes <= 0 {
		t.Error("probe accounting missing")
	}
	if res.Probes > 2500 {
		t.Errorf("fast extraction probed %d of 10000 pixels", res.Probes)
	}
	if res.ExperimentTime <= 0 {
		t.Error("experiment time missing")
	}
	if len(res.TransitionPoints) < 10 {
		t.Errorf("only %d transition points", len(res.TransitionPoints))
	}
}

func TestExtractBaselineOnSimulatedDevice(t *testing.T) {
	inst, truth, err := NewDoubleDotSim(DoubleDotSimOptions{Pixels: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtractBaseline(inst, inst.Window(), BaselineOptions{})
	if err != nil {
		t.Fatalf("ExtractBaseline: %v", err)
	}
	if e := angleErrDeg(res.SteepSlope, truth.SteepSlope); e > 3.5 {
		t.Errorf("steep slope %v vs truth %v (Δ%.2f°)", res.SteepSlope, truth.SteepSlope, e)
	}
	if res.Probes != 64*64 {
		t.Errorf("baseline probed %d, want full raster", res.Probes)
	}
}

func TestFastBeatsBaselineOnProbes(t *testing.T) {
	instA, _, err := NewDoubleDotSim(DoubleDotSimOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Extract(instA, instA.Window(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	instB, _, err := NewDoubleDotSim(DoubleDotSimOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ExtractBaseline(instB, instB.Window(), BaselineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(base.Probes) / float64(fast.Probes); ratio < 4 {
		t.Errorf("probe reduction only %.1fx", ratio)
	}
	if base.ExperimentTime <= fast.ExperimentTime {
		t.Error("baseline experiment time not larger")
	}
}

func TestExtractWithNoise(t *testing.T) {
	inst, truth, err := NewDoubleDotSim(DoubleDotSimOptions{
		Noise: NoiseParams{WhiteSigma: 0.02, PinkAmp: 0.015},
		Seed:  42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(inst, inst.Window(), Options{})
	if err != nil {
		t.Fatalf("Extract under moderate noise: %v", err)
	}
	if e := angleErrDeg(res.SteepSlope, truth.SteepSlope); e > 3.5 {
		t.Errorf("noisy steep slope off by %.2f°", e)
	}
}

func TestMatrixOrthogonalisesTruth(t *testing.T) {
	inst, truth, err := NewDoubleDotSim(DoubleDotSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(inst, inst.Window(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sErr, hErr := res.Matrix.OrthogonalityError(truth.SteepSlope, truth.ShallowSlope)
	if sErr > 3.5 || hErr > 3.5 {
		t.Errorf("virtualization residual cross-coupling (%.2f°, %.2f°)", sErr, hErr)
	}
}

func TestSimOptionValidation(t *testing.T) {
	if _, _, err := NewDoubleDotSim(DoubleDotSimOptions{SteepSlope: -0.5}); err == nil {
		t.Error("accepted non-steep steep slope")
	}
	if _, err := ExtractChainSpec(context.Background(), ChainSimOptions{Dots: 1}.Spec(), ChainExtractOptions{Workers: 1}); err == nil {
		t.Error("accepted 1-dot chain")
	}
}

func TestExtractChainQuadrupleDot(t *testing.T) {
	spec := ChainSimOptions{Dots: 4}.Spec()
	spec.FillDefaults()
	res, err := ExtractChainSpec(context.Background(), spec, ChainExtractOptions{
		Workers: 1, Methods: []ChainMethod{ChainMethodFast},
	})
	if err != nil {
		t.Fatalf("ExtractChainSpec: %v", err)
	}
	exts, chain := res.Pairs, res.Chain
	if len(exts) != 3 || chain == nil {
		t.Fatalf("%d pair extractions (failed %v), want 3", len(exts), res.Failed())
	}
	for i := range exts {
		steep, shallow := spec.PairTruth(i)
		if e := angleErrDeg(exts[i].SteepSlope, steep); e > 3.5 {
			t.Errorf("pair %d steep %v vs %v (Δ%.2f°)", i, exts[i].SteepSlope, steep, e)
		}
		if e := angleErrDeg(exts[i].ShallowSlope, shallow); e > 3.5 {
			t.Errorf("pair %d shallow %v vs %v (Δ%.2f°)", i, exts[i].ShallowSlope, shallow, e)
		}
	}
	m := chain.Matrix()
	if len(m) != 4 {
		t.Fatalf("chain matrix is %d×%d", len(m), len(m))
	}
	for i := 0; i < 4; i++ {
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d][%d] = %v", i, i, m[i][i])
		}
	}
	// Off-diagonals approximate the lever-arm ratios (≈ CrossFrac 0.12).
	for i := 0; i < 3; i++ {
		if m[i][i+1] < 0.05 || m[i][i+1] > 0.25 {
			t.Errorf("a12[%d] = %v, want ≈0.12", i, m[i][i+1])
		}
		if m[i+1][i] < 0.05 || m[i+1][i] > 0.25 {
			t.Errorf("a21[%d] = %v, want ≈0.12", i, m[i+1][i])
		}
	}
}

func TestExtractChainWindowCountValidation(t *testing.T) {
	spec := ChainSimOptions{Dots: 3}.Spec()
	_, err := ExtractChainSpec(context.Background(), spec, ChainExtractOptions{
		Workers: 1, Windows: []Window{NewWindow(0, 0, spec.SpanMV(), 64)},
	})
	if err == nil {
		t.Error("accepted wrong window count")
	}
}

func TestBenchmarksSuite(t *testing.T) {
	suite, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 12 {
		t.Fatalf("suite has %d benchmarks", len(suite))
	}
	inst, err := BenchmarkInstrument(suite[2])
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(inst, suite[2].Window, Options{})
	if err != nil {
		t.Fatalf("Extract on benchmark 3: %v", err)
	}
	if e := angleErrDeg(res.SteepSlope, suite[2].Truth.SteepSlope); e > 3.5 {
		t.Errorf("benchmark 3 steep slope off by %.2f°", e)
	}
}

func TestErrNonPhysicalSurfaces(t *testing.T) {
	// A featureless instrument (always the same current) cannot produce
	// physical lines; Extract must fail with a sentinel error.
	inst := constInstrument{}
	_, err := Extract(inst, NewWindow(0, 0, 50, 64), Options{})
	if err == nil {
		t.Fatal("extraction succeeded on constant data")
	}
	if !errors.Is(err, ErrAnchors) && !errors.Is(err, ErrFit) && !errors.Is(err, ErrNonPhysical) {
		t.Errorf("error %v is not a sentinel", err)
	}
}

type constInstrument struct{}

func (constInstrument) GetCurrent(v1, v2 float64) float64 { return 1 }

func TestAblationOptionsReachPipeline(t *testing.T) {
	inst, _, err := NewDoubleDotSim(DoubleDotSimOptions{Pixels: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(inst, inst.Window(), Options{RowSweepOnly: true, DisableFilter: true})
	if err != nil {
		t.Fatalf("ablated extraction failed on clean device: %v", err)
	}
	if len(res.Detail.ColTrace.Chosen) != 0 {
		t.Error("RowSweepOnly did not reach the pipeline")
	}
}
