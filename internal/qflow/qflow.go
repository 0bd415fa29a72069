// Package qflow provides this repository's stand-in for the qflow v2
// dataset: the 12 experimentally measured charge stability diagrams the
// paper evaluates on (Section 5.1). The real dataset is measured hardware
// data; here each benchmark is generated by the constant-interaction device
// model, the charge-sensor model and the measured-noise models, with a fixed
// seed so every run reproduces byte-identical CSDs.
//
// The suite mirrors the paper's structure:
//   - the same pixel sizes (two 200×200, three 63×63, six 100×100, one 200×200);
//   - benchmarks 1–2 carry noise strong enough that both methods fail;
//   - benchmark 7 has a faint shallow line that defeats the baseline's
//     ratio-thresholded edge detection but not the argmax-based sweeps;
//   - the remaining benchmarks are clean enough for both methods.
//
// Noise is evaluated on the instrument's virtual clock during a raster
// acquisition (50 ms/pixel), so 1/f and telegraph noise produce the
// scan-line striping seen in measured diagrams.
package qflow

import (
	"fmt"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/physics"
	"github.com/fastvg/fastvg/internal/sensor"
	"github.com/fastvg/fastvg/internal/xrand"
)

// Truth is the analytic ground truth of a benchmark, used by the success
// checker in place of the paper's manual inspection.
type Truth struct {
	SteepSlope   float64 `json:"steepSlope"`   // dV2/dV1
	ShallowSlope float64 `json:"shallowSlope"` // dV2/dV1
	TripleV1     float64 `json:"tripleV1"`     // triple point, mV
	TripleV2     float64 `json:"tripleV2"`
}

// PaperRow holds the paper's Table 1 numbers for side-by-side reporting.
type PaperRow struct {
	FastSuccess     bool    `json:"fastSuccess"`
	BaselineSuccess bool    `json:"baselineSuccess"`
	FastProbes      int     `json:"fastProbes"`
	FastPct         float64 `json:"fastPct"`
	FastRuntimeS    float64 `json:"fastRuntimeS"`
	BaseRuntimeS    float64 `json:"baseRuntimeS"`
	Speedup         float64 `json:"speedup"` // 0 = N/A
}

// Benchmark is one synthetic CSD with full provenance: regenerate the exact
// data from the stored parameters and seed.
type Benchmark struct {
	Index int    `json:"index"` // 1-based, as in Table 1
	Name  string `json:"name"`
	Size  int    `json:"size"` // square pixel resolution

	Window csd.Window         `json:"window"`
	Phys   *physics.DoubleDot `json:"phys"`
	Sens   sensor.Params      `json:"sens"`
	Noise  noise.Params       `json:"noise"`
	Seed   uint64             `json:"seed"`

	Truth Truth    `json:"truth"`
	Paper PaperRow `json:"paper"`
}

// spec drives the deterministic construction of one benchmark.
type spec struct {
	size       int
	steep      float64 // dV2/dV1 of the steep line
	shallow    float64
	crossXFrac float64 // steep line's bottom-edge crossing, fraction of width
	crossYFrac float64 // shallow line's left-edge crossing, fraction of height
	lambda1    float64 // sensor contrast of dot 1
	lambda2    float64
	whiteSigma float64
	pinkAmp    float64
	rtnAmp     float64
	rtnRate    float64
	paper      PaperRow
}

// paperTable1 transcribes the paper's Table 1.
var paperTable1 = []PaperRow{
	{false, false, 1753, 4.38, 87.94, 2005.12, 0},
	{false, false, 1692, 4.23, 84.89, 2004.98, 0},
	{true, true, 643, 16.2, 32.26, 198.96, 6.16},
	{true, true, 679, 17.1, 34.06, 198.97, 5.84},
	{true, true, 484, 12.19, 24.28, 198.94, 8.19},
	{true, true, 1002, 10.02, 50.27, 501.25, 9.97},
	{true, false, 985, 9.85, 49.42, 501.26, 10.14},
	{true, true, 1179, 11.79, 59.14, 501.26, 8.48},
	{true, true, 974, 9.74, 48.86, 501.27, 10.26},
	{true, true, 1054, 10.54, 52.88, 501.27, 9.48},
	{true, true, 927, 9.27, 46.5, 501.26, 10.78},
	{true, true, 2067, 5.17, 103.69, 2005.02, 19.34},
}

// suiteSpecs defines the 12 benchmarks. Sizes follow the paper exactly; line
// geometry and noise vary across benchmarks the way device-to-device
// variation does in the measured dataset.
var suiteSpecs = []spec{
	// 1–2: 200×200, heavy charge noise — both methods fail in the paper.
	{size: 200, steep: -7.5, shallow: -0.14, crossXFrac: 0.66, crossYFrac: 0.62,
		lambda1: 0.46, lambda2: 0.44, whiteSigma: 0.17, pinkAmp: 0.14, rtnAmp: 0.30, rtnRate: 0.35,
		paper: paperTable1[0]},
	{size: 200, steep: -5.8, shallow: -0.19, crossXFrac: 0.71, crossYFrac: 0.58,
		lambda1: 0.44, lambda2: 0.43, whiteSigma: 0.19, pinkAmp: 0.16, rtnAmp: 0.26, rtnRate: 0.6,
		paper: paperTable1[1]},
	// 3–5: 63×63, clean.
	{size: 63, steep: -8.0, shallow: -0.12, crossXFrac: 0.68, crossYFrac: 0.64,
		lambda1: 0.48, lambda2: 0.44, whiteSigma: 0.020, pinkAmp: 0.016,
		paper: paperTable1[2]},
	{size: 63, steep: -6.2, shallow: -0.17, crossXFrac: 0.62, crossYFrac: 0.70,
		lambda1: 0.50, lambda2: 0.52, whiteSigma: 0.024, pinkAmp: 0.018,
		paper: paperTable1[3]},
	{size: 63, steep: -10.5, shallow: -0.09, crossXFrac: 0.72, crossYFrac: 0.60,
		lambda1: 0.50, lambda2: 0.43, whiteSigma: 0.016, pinkAmp: 0.014,
		paper: paperTable1[4]},
	// 6–11: 100×100.
	{size: 100, steep: -7.0, shallow: -0.15, crossXFrac: 0.67, crossYFrac: 0.63,
		lambda1: 0.47, lambda2: 0.44, whiteSigma: 0.022, pinkAmp: 0.017,
		paper: paperTable1[5]},
	// 7: faint shallow line — baseline fails, fast succeeds (paper CSD 7).
	{size: 100, steep: -8.5, shallow: -0.13, crossXFrac: 0.70, crossYFrac: 0.61,
		lambda1: 0.72, lambda2: 0.10, whiteSigma: 0.012, pinkAmp: 0.009,
		paper: paperTable1[6]},
	{size: 100, steep: -5.5, shallow: -0.21, crossXFrac: 0.60, crossYFrac: 0.68,
		lambda1: 0.50, lambda2: 0.52, whiteSigma: 0.028, pinkAmp: 0.021,
		paper: paperTable1[7]},
	{size: 100, steep: -9.0, shallow: -0.10, crossXFrac: 0.73, crossYFrac: 0.59,
		lambda1: 0.48, lambda2: 0.42, whiteSigma: 0.020, pinkAmp: 0.015,
		paper: paperTable1[8]},
	{size: 100, steep: -6.8, shallow: -0.16, crossXFrac: 0.64, crossYFrac: 0.66,
		lambda1: 0.51, lambda2: 0.49, whiteSigma: 0.024, pinkAmp: 0.019,
		paper: paperTable1[9]},
	{size: 100, steep: -7.8, shallow: -0.11, crossXFrac: 0.69, crossYFrac: 0.62,
		lambda1: 0.46, lambda2: 0.44, whiteSigma: 0.018, pinkAmp: 0.014,
		paper: paperTable1[10]},
	// 12: 200×200, clean.
	{size: 200, steep: -8.2, shallow: -0.13, crossXFrac: 0.68, crossYFrac: 0.63,
		lambda1: 0.47, lambda2: 0.45, whiteSigma: 0.020, pinkAmp: 0.016,
		paper: paperTable1[11]},
}

// mVPerPixel is the voltage granularity δ of every benchmark window.
const mVPerPixel = 0.5

// suiteSeed anchors the deterministic generation of the whole suite.
const suiteSeed uint64 = 0x5177666c6f773200 // "Qwfqflow2"-ish tag

// Suite returns the 12 benchmark definitions.
func Suite() ([]*Benchmark, error) {
	out := make([]*Benchmark, 0, len(suiteSpecs))
	for i, s := range suiteSpecs {
		b, err := build(i+1, s)
		if err != nil {
			return nil, fmt.Errorf("qflow: benchmark %d: %w", i+1, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// MustSuite is Suite for tests and examples; it panics on construction
// errors (which would be a programming bug in the specs).
func MustSuite() []*Benchmark {
	s, err := Suite()
	if err != nil {
		panic(err)
	}
	return s
}

func build(index int, s spec) (*Benchmark, error) {
	span := float64(s.size) * mVPerPixel
	win := csd.NewSquareWindow(0, 0, span, s.size)

	geo := physics.Geometry{
		SteepSlope:   s.steep,
		ShallowSlope: s.shallow,
		SteepPoint:   [2]float64{s.crossXFrac * span, 0},
		ShallowPoint: [2]float64{0, s.crossYFrac * span},
		EC1:          4, EC2: 4, ECm: 0.25,
	}
	phys, err := physics.FromGeometry(geo)
	if err != nil {
		return nil, err
	}
	sens := sensor.DefaultDoubleDot(s.lambda1, s.lambda2, 2*span)
	np := noise.Params{
		WhiteSigma: s.whiteSigma,
		PinkAmp:    s.pinkAmp,
		PinkN:      14,
		PinkFMin:   0.005,
		PinkFMax:   20,
		RTNAmp:     s.rtnAmp,
		RTNRate:    s.rtnRate,
	}
	v1t, v2t, err := phys.TriplePoint()
	if err != nil {
		return nil, err
	}
	return &Benchmark{
		Index:  index,
		Name:   fmt.Sprintf("csd-%02d", index),
		Size:   s.size,
		Window: win,
		Phys:   phys,
		Sens:   sens,
		Noise:  np,
		Seed:   xrand.DeriveSeed(suiteSeed, index),
		Truth: Truth{
			SteepSlope:   s.steep,
			ShallowSlope: s.shallow,
			TripleV1:     v1t,
			TripleV2:     v2t,
		},
		Paper: s.paper,
	}, nil
}

// Generate produces the benchmark's CSD by rastering the simulated device
// with noise on the virtual clock, one row after another through
// csd.Acquire. The result is deterministic in the benchmark seed.
func (b *Benchmark) Generate() (*grid.Grid, error) {
	dev := &device.DoubleDot{
		Phys:  b.Phys,
		Sens:  b.Sens,
		Noise: b.Noise.Build(b.Seed),
	}
	inst := device.NewSimInstrument(dev, device.DefaultDwell, 0, 0)
	return csd.Acquire(inst, b.Window)
}

// Instrument generates the CSD and wraps it in a DatasetInstrument with the
// paper's 50 ms dwell, the object both extraction methods probe.
func (b *Benchmark) Instrument() (*device.DatasetInstrument, error) {
	g, err := b.Generate()
	if err != nil {
		return nil, err
	}
	return device.NewDatasetInstrument(g, b.Window, device.DefaultDwell)
}
