package fastvg

import (
	"fmt"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// NoiseParams is the serialisable description of a measurement-noise model:
// white (σ), 1/f (amplitude), random-telegraph (amplitude, rate) and drift.
type NoiseParams = noise.Params

// GroundTruth carries the analytic line slopes of a simulated device so that
// extractions can be scored without manual inspection.
type GroundTruth struct {
	SteepSlope   float64
	ShallowSlope float64
}

// DoubleDotSimOptions configures NewDoubleDotSim. The zero value gives a
// clean 100×100, 50 mV window with paper-typical line geometry.
type DoubleDotSimOptions struct {
	SteepSlope   float64 // dV2/dV1 of dot 1's line; default -8
	ShallowSlope float64 // dV2/dV1 of dot 2's line; default -0.12
	CrossXFrac   float64 // steep line's bottom-edge crossing as window fraction; default 0.68
	CrossYFrac   float64 // shallow line's left-edge crossing; default 0.63
	Pixels       int     // window resolution; default 100
	SpanMV       float64 // window span in mV; default Pixels/2 (δ = 0.5 mV)

	Lambda1, Lambda2 float64 // sensor contrast per dot; default 0.47 / 0.45

	Noise NoiseParams // zero = noiseless
	Seed  uint64      // noise realisation seed
}

// SimSpec is the serialisable description of a simulated double-dot device;
// it is the form the extraction service accepts in job requests, and
// DoubleDotSimOptions converts to it one-to-one.
type SimSpec = device.DoubleDotSpec

// Spec returns the options as a serialisable device specification.
func (o DoubleDotSimOptions) Spec() SimSpec {
	return SimSpec{
		SteepSlope:   o.SteepSlope,
		ShallowSlope: o.ShallowSlope,
		CrossXFrac:   o.CrossXFrac,
		CrossYFrac:   o.CrossYFrac,
		Pixels:       o.Pixels,
		SpanMV:       o.SpanMV,
		Lambda1:      o.Lambda1,
		Lambda2:      o.Lambda2,
		Noise:        o.Noise,
		Seed:         o.Seed,
	}
}

// BatchInstrument is the batched probing contract: whole scan rows or
// arbitrary probe lists served in one call, bit-identically to the
// equivalent GetCurrent sequence (same currents, Stats and noise
// realisation). Simulated instruments implement it; the acquisition and
// extraction pipelines route through it automatically.
type BatchInstrument = device.BatchInstrument

// SimInstrument is a simulated double-dot measurement instrument; it
// implements Instrument — and BatchInstrument, the zero-allocation batched
// probing fast path — and tracks probe statistics.
type SimInstrument struct {
	*device.SimInstrument
	win Window
}

// Window returns the scan window the simulator was built for.
func (s *SimInstrument) Window() Window { return s.win }

// AcquireCSD rasters the simulator's full scan window, one CurrentRow per
// row on the calling goroutine, so the grid, probe accounting and noise
// realisation are bit-identical to a scalar raster.
func (s *SimInstrument) AcquireCSD() (*Grid, error) {
	return csd.Acquire(s.SimInstrument, s.win)
}

// ProbeMap returns the window pixels measured so far, the sim counterpart of
// a benchmark instrument's probe map (the paper's Figure 7 data). Probes the
// pipelines took one pixel past the window edge are omitted.
func (s *SimInstrument) ProbeMap() []Point {
	cells := s.ProbedCells()
	pts := make([]Point, 0, len(cells))
	for _, c := range cells {
		x, y := int(c[0]), int(c[1])
		if x < 0 || x >= s.win.Cols || y < 0 || y >= s.win.Rows {
			continue
		}
		pts = append(pts, Point{X: x, Y: y})
	}
	return pts
}

// NewDoubleDotSim builds a simulated double-dot device with a charge sensor
// and returns an instrument over it, plus the device's analytic ground
// truth. The instrument charges the paper's 50 ms dwell per new probe on a
// virtual clock and memoises re-probed pixels.
func NewDoubleDotSim(opts DoubleDotSimOptions) (*SimInstrument, GroundTruth, error) {
	spec := opts.Spec()
	inst, win, err := spec.Build()
	truth := GroundTruth{SteepSlope: spec.SteepSlope, ShallowSlope: spec.ShallowSlope}
	if err != nil {
		return nil, truth, fmt.Errorf("fastvg: %w", err)
	}
	return &SimInstrument{SimInstrument: inst, win: win}, truth, nil
}

// ChainSimOptions describes a simulated N-dot chain device; Spec converts
// it to the ChainSpec that ExtractChainSpec takes. The zero value gives a
// clean 4-dot chain.
type ChainSimOptions struct {
	Dots      int     // number of dots/plungers; default 4
	CrossFrac float64 // nearest-neighbour lever-arm fraction; default 0.12
	Noise     NoiseParams
	Seed      uint64
}

// ChainSpec is the serialisable description of a simulated N-dot chain
// device; it is the form the extraction service accepts in chain job
// requests and the fleet accepts for chain devices, and ChainSimOptions
// converts to it one-to-one.
type ChainSpec = device.ChainSpec

// Spec returns the options as a serialisable chain device specification.
func (o ChainSimOptions) Spec() ChainSpec {
	return ChainSpec{
		Dots:      o.Dots,
		CrossFrac: o.CrossFrac,
		Noise:     o.Noise,
		Seed:      o.Seed,
	}
}

// Chain composes pairwise extractions into an N×N virtualization.
type Chain = virtualgate.Chain

// NewChain allocates an identity chain virtualization for n dots.
func NewChain(n int) (*Chain, error) { return virtualgate.NewChain(n) }
