// ChainSpec is the N-dot counterpart of DoubleDotSpec: the declarative,
// JSON-encodable form of a simulated linear-array device. One spec serves
// two builds. Build returns the whole array under a single shared
// MultiInstrument — the hardware-faithful view, where every pair extraction
// probes the same device and interleaving follows timing. BuildPair returns
// an independent instrument for one adjacent gate pair, with its noise and
// drift realisations derived from (Seed, pair) alone — the shared-nothing
// decomposition the chain planner (internal/chainx), the extraction
// service's chain jobs and the fleet's chain devices rely on for
// bit-identical results at any worker count.
package device

import (
	"errors"
	"fmt"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/physics"
	"github.com/fastvg/fastvg/internal/sensor"
	"github.com/fastvg/fastvg/internal/xrand"
)

// Chain device physics constants (the geometry NewChainSim has always
// built): homogeneous charging energies with nearest-neighbour coupling, and
// a first-electron line framed at ~65% of the recommended scan window so the
// triple point sits inside and the (0,0) region stays the brightest part
// (the anchor heuristics' regime).
const (
	chainEC       = 4.0
	chainECm      = 0.3
	chainAlphaOwn = 0.08
	chainFarFrac  = 0.3
	chainOffset   = -2.0
	chainLineFrac = 0.65
)

// ChainSpec describes a simulated N-dot linear-array device. The zero value
// (after FillDefaults) is a clean, noiseless 4-dot chain with 100×100 pair
// scan windows. Given equal specs, BuildPair(i) returns devices whose noise
// and drift realisations depend on (Seed, i) only, so pair extractions are
// reproducible independently of each other.
type ChainSpec struct {
	Dots      int     `json:"dots,omitempty"`      // number of dots/plungers; default 4
	CrossFrac float64 `json:"crossFrac,omitempty"` // nearest-neighbour lever-arm fraction; default 0.12
	Pixels    int     `json:"pixels,omitempty"`    // pair scan window resolution; default 100

	Noise noise.Params `json:"noise,omitzero"` // sensor noise; zero = noiseless
	Seed  uint64       `json:"seed,omitempty"` // realisation seed

	// PairDrift gives pair i a pair-local lever-arm drift (PairView.Drift).
	// Shorter lists leave the remaining pairs driftless; this is what makes
	// a *single* pair's matrix go stale in the fleet workload while its
	// neighbours stay fresh.
	PairDrift []LeverDriftSpec `json:"pairDrift,omitempty"`

	// Surrogate, when non-nil with a positive Threshold, asks the extraction
	// service to probe every pair surrogate-first (one twin per pair). Build
	// and BuildPair ignore it — composition happens in the service layer.
	Surrogate *SurrogateSpec `json:"surrogate,omitempty"`
}

// FillDefaults replaces zero fields with the documented defaults.
func (s *ChainSpec) FillDefaults() {
	if s.Dots == 0 {
		s.Dots = 4
	}
	if s.CrossFrac == 0 {
		s.CrossFrac = 0.12
	}
	if s.Pixels <= 0 {
		s.Pixels = 100
	}
}

// Validate checks the spec is buildable. Call after FillDefaults.
func (s ChainSpec) Validate() error {
	if s.Dots < 2 {
		return errors.New("device: chain needs at least 2 dots")
	}
	if s.CrossFrac <= 0 || s.CrossFrac >= 1 {
		return fmt.Errorf("device: chain crossFrac %v must be in (0, 1)", s.CrossFrac)
	}
	if len(s.PairDrift) > s.Dots-1 {
		return fmt.Errorf("device: %d pair drifts for %d pairs", len(s.PairDrift), s.Dots-1)
	}
	return nil
}

// MaxDots caps the dot count of a chain that arrives as input: the array
// physics is N×N and BuildPair builds the whole array for every one of the
// N−1 pairs. The largest chain the repository ships has 16 dots.
const MaxDots = 64

// CheckLimits checks the bounds a spec that arrives as input must respect,
// as DoubleDotSpec.CheckLimits does: at most MaxDots dots, at most
// MaxPixels pair-window pixels and bounded noise models for the sensor and
// every pair drift. Build, BuildPair and Validate do not call it, so specs
// journaled before these bounds existed still build.
func (s ChainSpec) CheckLimits() error {
	if s.Dots > MaxDots {
		return fmt.Errorf("device: chain dots %d exceeds %d", s.Dots, MaxDots)
	}
	if s.Pixels > MaxPixels {
		return fmt.Errorf("device: chain pixels %d exceeds %d", s.Pixels, MaxPixels)
	}
	if err := s.Noise.Validate(); err != nil {
		return fmt.Errorf("device: chain %w", err)
	}
	for i, d := range s.PairDrift {
		if err := d.validate(); err != nil {
			return fmt.Errorf("device: chain pairDrift[%d] %w", i, err)
		}
	}
	return nil
}

// SpanMV returns the recommended pair scan span in millivolts.
func (s ChainSpec) SpanMV() float64 {
	return (-chainOffset / chainAlphaOwn) / chainLineFrac
}

// Window returns the pair scan window the spec describes. Call after
// FillDefaults.
func (s ChainSpec) Window() csd.Window {
	return csd.NewSquareWindow(0, 0, s.SpanMV(), s.Pixels)
}

// buildPhys constructs the array physics.
func (s ChainSpec) buildPhys() (*physics.Array, error) {
	return physics.UniformChain(s.Dots, chainEC, chainECm, chainAlphaOwn, s.CrossFrac, chainFarFrac, chainOffset)
}

// buildSensor constructs the shared charge sensor: the background flank is
// driven mainly by the scanned pair (q sweeps ~1.5 peak widths across one
// pair window).
func (s ChainSpec) buildSensor() sensor.Params {
	span := s.SpanMV()
	p := sensor.Params{
		Base: 0.05, PeakAmp: 1, PeakPos: 1.7, PeakWidth: 1,
		Kappa:  make([]float64, s.Dots),
		Lambda: make([]float64, s.Dots),
	}
	for i := 0; i < s.Dots; i++ {
		p.Kappa[i] = 1.5 / (2 * span)
		p.Lambda[i] = 0.46
	}
	return p
}

// Build fills defaults and constructs the whole array under one shared
// MultiInstrument (the paper's 50 ms dwell, memoised at 1/128 of the pair
// span) — the single-device view NewChainSim exposes.
func (s *ChainSpec) Build() (*MultiInstrument, csd.Window, error) {
	s.FillDefaults()
	if err := s.Validate(); err != nil {
		return nil, csd.Window{}, err
	}
	phys, err := s.buildPhys()
	if err != nil {
		return nil, csd.Window{}, err
	}
	dev := &ArrayDevice{Phys: phys, Sens: s.buildSensor(), Noise: s.Noise.Build(s.Seed)}
	return NewMultiInstrument(dev, DefaultDwell, s.SpanMV()/128), s.Window(), nil
}

// pairSeedBase offsets the per-pair seed derivation away from the channel
// seeds LeverDriftSpec.build derives, so pair noise and pair drift can never
// collide.
const pairSeedBase = 1000

// BuildPair fills defaults and constructs an independent instrument for
// adjacent gate pair (i, i+1): a fresh ArrayDevice (noise seeded by
// DeriveSeed(Seed, pairSeedBase+i)) under its own MultiInstrument, exposed
// as a PairView with every other gate held at 0 mV and the spec's pair
// drift (if any) attached. Instruments of different pairs share nothing, so
// concurrent pair extractions are bit-identical to sequential ones.
func (s *ChainSpec) BuildPair(i int) (*PairView, csd.Window, error) {
	s.FillDefaults()
	if err := s.Validate(); err != nil {
		return nil, csd.Window{}, err
	}
	if i < 0 || i >= s.Dots-1 {
		return nil, csd.Window{}, fmt.Errorf("device: pair index %d out of range 0..%d", i, s.Dots-2)
	}
	phys, err := s.buildPhys()
	if err != nil {
		return nil, csd.Window{}, err
	}
	pairSeed := xrand.DeriveSeed(s.Seed, pairSeedBase+i)
	dev := &ArrayDevice{Phys: phys, Sens: s.buildSensor(), Noise: s.Noise.Build(pairSeed)}
	inst := NewMultiInstrument(dev, DefaultDwell, s.SpanMV()/128)
	pv, err := NewPairView(inst, i, i+1, make([]float64, s.Dots))
	if err != nil {
		return nil, csd.Window{}, err
	}
	if i < len(s.PairDrift) {
		pv.Drift = s.PairDrift[i].build(pairSeed)
	}
	return pv, s.Window(), nil
}

// PairTruth returns the analytic (steep, shallow) transition-line slopes of
// adjacent pair (i, i+1) — the ground truth chain extractions are scored
// against. Call after FillDefaults.
func (s ChainSpec) PairTruth(i int) (steep, shallow float64) {
	own := chainAlphaOwn
	cross := chainAlphaOwn * s.CrossFrac
	return -own / cross, -cross / own
}
