package surrogate

import (
	"bytes"
	"math"
	"testing"

	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fitting"
	"github.com/fastvg/fastvg/internal/xrand"
)

func buildSim(t testing.TB, seed uint64) (*device.SimInstrument, csd.Window) {
	t.Helper()
	spec := device.DoubleDotSpec{Seed: seed}
	spec.FillDefaults()
	inst, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst, win
}

// trainedModel rasters the whole window through a learning Hybrid and fits.
func trainedModel(t testing.TB, inst *device.SimInstrument, win csd.Window) *Model {
	t.Helper()
	m := New(win)
	h := &Hybrid{Model: m, Inner: inst, Threshold: DefaultThreshold, Learn: true}
	for y := 0; y < win.Rows; y++ {
		for x := 0; x < win.Cols; x++ {
			h.GetCurrent(win.V1At(x), win.V2At(y))
		}
	}
	if h.Hits() != 0 {
		t.Fatalf("unfitted model served %d probes", h.Hits())
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	return m
}

// An empty or unfitted model must never answer: surrogate-first probing of a
// fresh device degenerates to live probing plus training.
func TestUnfittedModelEscalatesEverything(t *testing.T) {
	inst, win := buildSim(t, 3)
	m := New(win)
	if _, conf := m.Predict(win.V1At(10), win.V2At(10)); conf != 0 {
		t.Fatalf("empty model confidence = %v, want 0", conf)
	}
	m.Add(win.V1At(10), win.V2At(10), inst.GetCurrent(win.V1At(10), win.V2At(10)))
	if _, conf := m.Predict(win.V1At(10), win.V2At(10)); conf != 0 {
		t.Fatalf("unfitted model confidence = %v, want 0", conf)
	}
}

// The property test pinned by ISSUE 6: a Hybrid with threshold 0 is
// byte-identical to the wrapped instrument — same currents bit for bit, same
// probe accounting — even over a trained model with Learn on.
func TestHybridThresholdZeroIdentical(t *testing.T) {
	instA, win := buildSim(t, 7)
	instB, _ := buildSim(t, 7)
	model := trainedModel(t, instA, win)

	ref, _ := buildSim(t, 7)
	h := &Hybrid{Model: model, Inner: instB, Threshold: 0, Learn: true}
	rng := xrand.New(99)
	for i := 0; i < 5000; i++ {
		v1 := win.V1Min + rng.Float64()*(win.V1Max-win.V1Min)
		v2 := win.V2Min + rng.Float64()*(win.V2Max-win.V2Min)
		want := ref.GetCurrent(v1, v2)
		got := h.GetCurrent(v1, v2)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("probe %d (%.6f, %.6f): %x != %x", i, v1, v2, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if h.Hits() != 0 {
		t.Fatalf("threshold 0 served %d probes from the twin", h.Hits())
	}
	if hs, ws := h.Stats(), ref.Stats(); hs != ws {
		t.Fatalf("stats diverged: %+v != %+v", hs, ws)
	}
}

func TestPredictConfidence(t *testing.T) {
	inst, win := buildSim(t, 7)
	m := trainedModel(t, inst, win)
	fit, ok := m.Line()
	if !ok {
		t.Fatal("no fit")
	}

	// An exactly-probed plateau pixel far from the lines: confidence 1 and
	// the stored value.
	v1, v2 := win.V1At(2), win.V2At(win.Rows-3)
	if fit.Model.Dist(fitting.Vec2{X: v1, Y: v2}) < 8*win.StepV1() {
		t.Skip("test pixel unexpectedly near the fitted line")
	}
	val, conf := m.Predict(v1, v2)
	if conf != 1 {
		t.Fatalf("probed-cell confidence = %v, want 1", conf)
	}
	if math.Float64bits(val) != math.Float64bits(inst.GetCurrent(v1, v2)) {
		t.Fatal("stored value does not match the instrument")
	}

	// On the fitted line: zero confidence (guard band).
	if _, conf := m.Predict(fit.Model.K.X, fit.Model.K.Y); conf != 0 {
		t.Fatalf("knee confidence = %v, want 0", conf)
	}
	// Outside the window: zero confidence.
	if _, conf := m.Predict(win.V1Max+1, win.V2Min); conf != 0 {
		t.Fatalf("out-of-window confidence = %v, want 0", conf)
	}
}

// The fitted transition shape must land near where the extraction pipeline
// itself puts the knee on the same device.
func TestFitLocatesLines(t *testing.T) {
	spec := device.DoubleDotSpec{Seed: 11}
	spec.FillDefaults()
	inst, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Extract(csd.PixelSource{Src: inst, Win: win}, win, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantX, wantY := ref.TriplePointVoltage(win)

	m := trainedModel(t, inst, win)
	fit, _ := m.Line()
	tol := 4 * math.Max(win.StepV1(), win.StepV2())
	if math.Abs(fit.Model.K.X-wantX) > tol || math.Abs(fit.Model.K.Y-wantY) > tol {
		t.Fatalf("knee (%.3f, %.3f), want near (%.3f, %.3f)", fit.Model.K.X, fit.Model.K.Y, wantX, wantY)
	}
}

// A trained twin must serve the bulk of a repeat raster and escalate only
// the guard band around the transition lines.
func TestHybridSavesPlateauProbes(t *testing.T) {
	inst, win := buildSim(t, 7)
	m := trainedModel(t, inst, win)
	h := &Hybrid{Model: m, Inner: inst, Threshold: DefaultThreshold, Learn: true}
	for y := 0; y < win.Rows; y++ {
		for x := 0; x < win.Cols; x++ {
			h.GetCurrent(win.V1At(x), win.V2At(y))
		}
	}
	total := h.Hits() + h.Escalations()
	if total != win.Cols*win.Rows {
		t.Fatalf("accounted %d probes, want %d", total, win.Cols*win.Rows)
	}
	if frac := float64(h.Hits()) / float64(total); frac < 0.7 {
		t.Fatalf("twin served only %.0f%% of a repeat raster", 100*frac)
	}
	if h.Escalations() == 0 {
		t.Fatal("guard band escalated nothing")
	}
}

func TestReset(t *testing.T) {
	inst, win := buildSim(t, 7)
	m := trainedModel(t, inst, win)
	m.Reset()
	if m.Cells() != 0 || m.Fitted() {
		t.Fatalf("reset left %d cells, fitted=%v", m.Cells(), m.Fitted())
	}
	if _, conf := m.Predict(win.V1At(2), win.V2At(2)); conf != 0 {
		t.Fatalf("reset model confidence = %v, want 0", conf)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	inst, win := buildSim(t, 7)
	for _, m := range []*Model{New(win), trainedModel(t, inst, win)} {
		b := m.Encode()
		m2, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m2.Encode(), b) {
			t.Fatal("re-encode changed bytes")
		}
		if m2.Cells() != m.Cells() || m2.Samples() != m.Samples() || m2.Fitted() != m.Fitted() || m2.Win() != m.Win() {
			t.Fatalf("round trip changed model: %d/%d cells, %d/%d samples", m2.Cells(), m.Cells(), m2.Samples(), m.Samples())
		}
		rng := xrand.New(5)
		for i := 0; i < 200; i++ {
			v1 := win.V1Min + rng.Float64()*(win.V1Max-win.V1Min)
			v2 := win.V2Min + rng.Float64()*(win.V2Max-win.V2Min)
			av, ac := m.Predict(v1, v2)
			bv, bc := m2.Predict(v1, v2)
			if math.Float64bits(av) != math.Float64bits(bv) || math.Float64bits(ac) != math.Float64bits(bc) {
				t.Fatalf("prediction diverged after round trip at (%v, %v)", v1, v2)
			}
		}
	}
}

// TestEncodeAllocs: Encode allocates its output buffer once, sized up
// front, for an empty model and a trained one.
func TestEncodeAllocs(t *testing.T) {
	inst, win := buildSim(t, 7)
	for _, m := range []*Model{New(win), trainedModel(t, inst, win)} {
		if allocs := testing.AllocsPerRun(20, func() { m.Encode() }); allocs != 1 {
			t.Fatalf("Encode of a %d-cell model allocates %.1f times, want 1", m.Cells(), allocs)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	inst, win := buildSim(t, 7)
	b := trainedModel(t, inst, win).Encode()
	if _, err := Decode(nil); err == nil {
		t.Fatal("decoded empty input")
	}
	for _, cut := range []int{1, len(b) / 2, len(b) - 1} {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("decoded %d-byte truncation", cut)
		}
	}
	if _, err := Decode(append(append([]byte{}, b...), 0xff)); err == nil {
		t.Fatal("decoded trailing garbage")
	}
}
