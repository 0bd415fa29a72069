// Serialisable device specifications. A DoubleDotSpec is the declarative,
// JSON-encodable form of a simulated double-dot instrument: the root
// package's NewDoubleDotSim and the extraction service's job requests and
// session registry all build instruments from the same spec, so a device
// described over the wire is byte-identical to one built in-process.
package device

import (
	"fmt"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/physics"
	"github.com/fastvg/fastvg/internal/sensor"
	"github.com/fastvg/fastvg/internal/xrand"
)

// DoubleDotSpec describes a simulated double-dot device and its scan window.
// The zero value (after FillDefaults) is a clean 100×100, 50 mV window with
// paper-typical line geometry. Given equal specs, Build returns devices with
// identical noise realisations: the spec plus the probing schedule fully
// determines every measured current.
type DoubleDotSpec struct {
	SteepSlope   float64 `json:"steepSlope,omitempty"`   // dV2/dV1 of dot 1's line; default -8
	ShallowSlope float64 `json:"shallowSlope,omitempty"` // dV2/dV1 of dot 2's line; default -0.12
	CrossXFrac   float64 `json:"crossXFrac,omitempty"`   // steep line's bottom-edge crossing, window fraction; default 0.68
	CrossYFrac   float64 `json:"crossYFrac,omitempty"`   // shallow line's left-edge crossing; default 0.63
	Pixels       int     `json:"pixels,omitempty"`       // window resolution; default 100
	SpanMV       float64 `json:"spanMV,omitempty"`       // window span in mV; default Pixels/2 (δ = 0.5 mV)

	Lambda1 float64 `json:"lambda1,omitempty"` // sensor contrast of dot 1; default 0.47
	Lambda2 float64 `json:"lambda2,omitempty"` // sensor contrast of dot 2; default 0.45

	Noise noise.Params `json:"noise,omitzero"` // zero = noiseless
	Seed  uint64       `json:"seed,omitempty"` // noise realisation seed

	// LeverDrift, when non-nil, makes the built device's lever arms wander on
	// the virtual clock (see LeverDrift) — the fleet-calibration workload's
	// staleness mechanism. Component seeds derive from Seed, so the drift
	// realisation is as reproducible as the sensor noise.
	LeverDrift *LeverDriftSpec `json:"leverDrift,omitempty"`

	// Surrogate, when non-nil with a positive Threshold, asks the extraction
	// service to probe this device surrogate-first: a learned digital twin
	// (internal/surrogate) answers high-confidence probes and only the rest
	// reach the built instrument. Build ignores it — composition happens in
	// the service layer, where the twin registry lives.
	Surrogate *SurrogateSpec `json:"surrogate,omitempty"`
}

// SurrogateSpec selects surrogate-first probing for a spec'd device.
type SurrogateSpec struct {
	// Threshold is the escalation knob: probes whose twin confidence is at
	// least this are served from the model (surrogate.DefaultThreshold is
	// the tuned value; confidence is 1/(1+d) in pixel distance d, zero near
	// the fitted transition lines). Zero disables the twin entirely.
	Threshold float64 `json:"threshold,omitempty"`
	// NoLearn freezes the twin: escalated live probes are not fed back.
	NoLearn bool `json:"noLearn,omitempty"`
}

// LeverDriftSpec is the serialisable description of a LeverDrift: one noise
// model per warp channel. Zero Params leave a channel silent. The shear
// channels are dimensionless (a ±0.02 shear moves a line by ≈ 2% of the
// orthogonal voltage), the offset channels are in mV.
type LeverDriftSpec struct {
	Shear12 noise.Params `json:"shear12,omitzero"`
	Shear21 noise.Params `json:"shear21,omitzero"`
	Offset1 noise.Params `json:"offset1,omitzero"`
	Offset2 noise.Params `json:"offset2,omitzero"`
}

// zero reports whether every channel is silent.
func (l LeverDriftSpec) zero() bool {
	return l.Shear12 == (noise.Params{}) && l.Shear21 == (noise.Params{}) &&
		l.Offset1 == (noise.Params{}) && l.Offset2 == (noise.Params{})
}

// validate checks every channel's noise model (noise.Params.Validate).
func (l LeverDriftSpec) validate() error {
	for _, c := range []struct {
		name string
		p    noise.Params
	}{{"shear12", l.Shear12}, {"shear21", l.Shear21}, {"offset1", l.Offset1}, {"offset2", l.Offset2}} {
		if err := c.p.Validate(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

// build constructs the LeverDrift with channel seeds derived from seed.
func (l LeverDriftSpec) build(seed uint64) *LeverDrift {
	if l.zero() {
		return nil
	}
	d := &LeverDrift{}
	if l.Shear12 != (noise.Params{}) {
		d.Shear12 = l.Shear12.Build(xrand.DeriveSeed(seed, 201))
	}
	if l.Shear21 != (noise.Params{}) {
		d.Shear21 = l.Shear21.Build(xrand.DeriveSeed(seed, 202))
	}
	if l.Offset1 != (noise.Params{}) {
		d.Offset1 = l.Offset1.Build(xrand.DeriveSeed(seed, 203))
	}
	if l.Offset2 != (noise.Params{}) {
		d.Offset2 = l.Offset2.Build(xrand.DeriveSeed(seed, 204))
	}
	return d
}

// FillDefaults replaces zero fields with the documented defaults.
func (s *DoubleDotSpec) FillDefaults() {
	if s.SteepSlope == 0 {
		s.SteepSlope = -8
	}
	if s.ShallowSlope == 0 {
		s.ShallowSlope = -0.12
	}
	if s.CrossXFrac == 0 {
		s.CrossXFrac = 0.68
	}
	if s.CrossYFrac == 0 {
		s.CrossYFrac = 0.63
	}
	if s.Pixels <= 0 {
		s.Pixels = 100
	}
	if s.SpanMV <= 0 {
		s.SpanMV = float64(s.Pixels) / 2
	}
	if s.Lambda1 == 0 {
		s.Lambda1 = 0.47
	}
	if s.Lambda2 == 0 {
		s.Lambda2 = 0.45
	}
}

// MaxPixels caps the resolution of a scan window that arrives as input,
// along each axis: pixel counts size raster grids and probe loops. The
// largest window the repository ships is 400 pixels.
const MaxPixels = 1024

// CheckLimits checks the bounds a spec that arrives as input must respect:
// pixels in [0, MaxPixels], a non-negative spanMV (0 means the default for
// both) and bounded noise models (noise.Params.Validate) for the sensor and
// every drift channel. Build does not call it, so specs journaled before
// these bounds existed still build.
func (s DoubleDotSpec) CheckLimits() error {
	if s.Pixels < 0 {
		return fmt.Errorf("device: pixels %d is negative", s.Pixels)
	}
	if s.Pixels > MaxPixels {
		return fmt.Errorf("device: pixels %d exceeds %d", s.Pixels, MaxPixels)
	}
	if s.SpanMV < 0 {
		return fmt.Errorf("device: spanMV %g is negative", s.SpanMV)
	}
	if err := s.Noise.Validate(); err != nil {
		return fmt.Errorf("device: %w", err)
	}
	if s.LeverDrift != nil {
		if err := s.LeverDrift.validate(); err != nil {
			return fmt.Errorf("device: leverDrift %w", err)
		}
	}
	return nil
}

// Window returns the scan window the spec describes. Call after FillDefaults.
func (s DoubleDotSpec) Window() csd.Window {
	return csd.NewSquareWindow(0, 0, s.SpanMV, s.Pixels)
}

// Build fills defaults and constructs the simulated instrument: a DoubleDot
// device under a SimInstrument with the paper's 50 ms dwell, memoised at the
// window's pixel pitch.
func (s *DoubleDotSpec) Build() (*SimInstrument, csd.Window, error) {
	s.FillDefaults()
	phys, err := physics.FromGeometry(physics.Geometry{
		SteepSlope:   s.SteepSlope,
		ShallowSlope: s.ShallowSlope,
		SteepPoint:   [2]float64{s.CrossXFrac * s.SpanMV, 0},
		ShallowPoint: [2]float64{0, s.CrossYFrac * s.SpanMV},
		EC1:          4, EC2: 4, ECm: 0.25,
	})
	if err != nil {
		return nil, csd.Window{}, fmt.Errorf("device: %w", err)
	}
	dev := &DoubleDot{
		Phys:  phys,
		Sens:  sensor.DefaultDoubleDot(s.Lambda1, s.Lambda2, 2*s.SpanMV),
		Noise: s.Noise.Build(s.Seed),
	}
	if s.LeverDrift != nil {
		dev.Drift = s.LeverDrift.build(s.Seed)
	}
	win := s.Window()
	inst := NewSimInstrument(dev, DefaultDwell, win.StepV1(), win.StepV2())
	inst.memo.fitWindow(win, inst.QuantV1, inst.QuantV2)
	return inst, win, nil
}
