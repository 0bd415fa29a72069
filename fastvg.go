package fastvg

import (
	"time"

	"github.com/fastvg/fastvg/internal/baseline"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/imaging"
	"github.com/fastvg/fastvg/internal/qflow"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// Window maps a pixel grid onto a rectangle of (V1, V2) gate-voltage space;
// the pixel pitch is the probing granularity δ.
type Window = csd.Window

// NewWindow returns an n×n window covering [v1Min, v1Min+span] ×
// [v2Min, v2Min+span] millivolts.
func NewWindow(v1Min, v2Min, span float64, n int) Window {
	return csd.NewSquareWindow(v1Min, v2Min, span, n)
}

// Instrument measures charge-sensor current at a two-gate voltage
// configuration: the paper's getCurrent (set voltages, dwell, read).
type Instrument = device.Instrument

// Stats accounts for an instrument's experimental cost.
type Stats = device.Stats

// Matrix2 is a 2×2 virtualization matrix with unit diagonal.
type Matrix2 = virtualgate.Mat2

// Point is an integer pixel coordinate in a scan window.
type Point = grid.Point

// Grid is a dense float64 raster (an acquired CSD, a probe mask, ...).
type Grid = grid.Grid

// Sentinel errors re-exported from the pipelines.
var (
	ErrAnchors             = core.ErrAnchors
	ErrFit                 = core.ErrFit
	ErrNonPhysical         = core.ErrNonPhysical
	ErrNoLine              = baseline.ErrNoLine
	ErrBaselineNonPhysical = baseline.ErrNonPhysical
)

// Options tunes Extract; the zero value reproduces the paper's method.
type Options struct {
	// DiagonalProbes is the number of anchor-preprocessing probes along the
	// window diagonal (default 10, the paper's value).
	DiagonalProbes int
	// GaussSigmaFrac is the anchor-score Gaussian width as a fraction of the
	// mask sweep range (default 0.25).
	GaussSigmaFrac float64

	// Ablation switches, all false for the paper's method.
	DisableFilter bool // skip the erroneous-point filter
	RowSweepOnly  bool // skip the column-major sweep
	NoShrink      bool // keep the search triangle static
}

func (o Options) coreConfig() core.Config {
	cfg := core.Config{
		DisableFilter: o.DisableFilter,
		RowSweepOnly:  o.RowSweepOnly,
		NoShrink:      o.NoShrink,
	}
	cfg.Anchors.DiagonalPoints = o.DiagonalProbes
	cfg.Anchors.GaussSigmaFrac = o.GaussSigmaFrac
	return cfg
}

// BaselineOptions tunes ExtractBaseline; the zero value uses the documented
// defaults (OpenCV-style Canny ratios, 1° Hough resolution).
type BaselineOptions struct {
	CannySigma     float64 // Gaussian σ before edge detection
	CannyHighRatio float64 // high threshold as fraction of max gradient
	NoRefine       bool    // skip total-least-squares slope refinement
}

func (o BaselineOptions) config() baseline.Config {
	cfg := baseline.Config{NoRefine: o.NoRefine}
	if o.CannySigma != 0 || o.CannyHighRatio != 0 {
		cfg.Canny = imaging.DefaultCannyConfig()
		if o.CannySigma != 0 {
			cfg.Canny.Sigma = o.CannySigma
		}
		if o.CannyHighRatio != 0 {
			cfg.Canny.HighRatio = o.CannyHighRatio
		}
	}
	return cfg
}

// Extraction is the outcome of a virtual gate extraction, by either method.
type Extraction struct {
	// Matrix is the virtualization matrix: V' = Matrix · V.
	Matrix Matrix2
	// SteepSlope and ShallowSlope are the measured transition-line slopes
	// dV2/dV1 (dot 1's line and dot 2's line respectively).
	SteepSlope   float64
	ShallowSlope float64
	// TripleV1, TripleV2 locate the fitted line intersection in volts.
	TripleV1, TripleV2 float64

	// TransitionPoints are the filtered charge-state transition pixels the
	// fast method located (empty for the baseline).
	TransitionPoints []Point

	// Probes counts distinct voltage configurations measured, and
	// ExperimentTime the dwell time they cost on the instrument's virtual
	// clock; both are zero if the instrument does not track statistics.
	Probes         int
	ExperimentTime time.Duration

	// Detail exposes the full pipeline diagnostics for the fast method.
	Detail *core.Result
	// BaselineDetail exposes the vision-pipeline diagnostics.
	BaselineDetail *baseline.Result
}

// Extract runs the paper's fast virtual gate extraction against inst over
// the scan window. Typical cost is ~10% of the window's pixels.
func Extract(inst Instrument, win Window, opts Options) (*Extraction, error) {
	before := statsOf(inst)
	res, err := core.Extract(csd.PixelSource{Src: inst, Win: win}, win, opts.coreConfig())
	if err != nil {
		return nil, err
	}
	ext := &Extraction{
		Matrix:           res.Matrix,
		SteepSlope:       res.SteepSlope,
		ShallowSlope:     res.ShallowSlope,
		TransitionPoints: res.Points,
		Detail:           res,
	}
	ext.TripleV1, ext.TripleV2 = res.TriplePointVoltage(win)
	fillCost(ext, inst, before)
	return ext, nil
}

// ExtractBaseline runs the comparison method: full-CSD acquisition followed
// by Canny edge detection and a Hough transform. It probes every pixel.
func ExtractBaseline(inst Instrument, win Window, opts BaselineOptions) (*Extraction, error) {
	before := statsOf(inst)
	res, err := baseline.Extract(inst, win, opts.config())
	if err != nil {
		return nil, err
	}
	ext := &Extraction{
		Matrix:         res.Matrix,
		SteepSlope:     res.SteepSlope,
		ShallowSlope:   res.ShallowSlope,
		BaselineDetail: res,
	}
	ext.TripleV1 = win.V1Min + (res.Knee.X+0.5)*win.StepV1()
	ext.TripleV2 = win.V2Min + (res.Knee.Y+0.5)*win.StepV2()
	fillCost(ext, inst, before)
	return ext, nil
}

func statsOf(inst Instrument) Stats {
	if acc, ok := inst.(device.Accountant); ok {
		return acc.Stats()
	}
	return Stats{}
}

func fillCost(ext *Extraction, inst Instrument, before Stats) {
	if acc, ok := inst.(device.Accountant); ok {
		after := acc.Stats()
		ext.Probes = after.UniqueProbes - before.UniqueProbes
		ext.ExperimentTime = after.Virtual - before.Virtual
	}
}

// Benchmark is one synthetic qflow CSD benchmark (see internal/qflow).
type Benchmark = qflow.Benchmark

// Benchmarks returns the 12-benchmark synthetic suite mirroring the paper's
// evaluation data.
func Benchmarks() ([]*Benchmark, error) { return qflow.Suite() }

// BenchmarkInstrument generates a benchmark's CSD and wraps it in a
// dataset-replay instrument with the paper's 50 ms dwell.
func BenchmarkInstrument(b *Benchmark) (Instrument, error) { return b.Instrument() }
