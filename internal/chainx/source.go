package chainx

import (
	"fmt"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
)

// SpecSource decomposes a device.ChainSpec into independent per-pair
// instruments — the canonical planner Source. Each Pair call builds a fresh
// shared-nothing instrument whose noise and drift realisations derive from
// (spec.Seed, pair) alone, so concurrent extraction is bit-identical to
// sequential at any worker count.
type SpecSource struct {
	spec    device.ChainSpec
	windows []csd.Window       // per-pair scan windows
	built   []*device.PairView // the last instrument Pair built for each pair
}

// NewSpecSource builds a source over spec. windows, when non-nil, overrides
// the spec's default pair window and must hold Dots−1 entries (one per
// adjacent pair).
func NewSpecSource(spec device.ChainSpec, windows []csd.Window) (*SpecSource, error) {
	spec.FillDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if windows == nil {
		w := spec.Window()
		windows = make([]csd.Window, spec.Dots-1)
		for i := range windows {
			windows[i] = w
		}
	}
	if len(windows) != spec.Dots-1 {
		return nil, fmt.Errorf("chainx: need %d pair windows, got %d", spec.Dots-1, len(windows))
	}
	for i, w := range windows {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("chainx: pair %d window: %w", i, err)
		}
	}
	return &SpecSource{spec: spec, windows: windows, built: make([]*device.PairView, spec.Dots-1)}, nil
}

// Dots implements Source.
func (s *SpecSource) Dots() int { return s.spec.Dots }

// Windows returns the per-pair scan windows.
func (s *SpecSource) Windows() []csd.Window { return s.windows }

// Pair implements Source with an independent instrument per pair. Calls
// for distinct pairs may run concurrently.
func (s *SpecSource) Pair(i int) (PairInstrument, csd.Window, error) {
	if i < 0 || i >= s.spec.Dots-1 {
		return nil, csd.Window{}, fmt.Errorf("chainx: pair index %d out of range", i)
	}
	pv, _, err := s.spec.BuildPair(i)
	if err != nil {
		return nil, csd.Window{}, err
	}
	s.built[i] = pv
	return pv, s.windows[i], nil
}

// Release hands the memo rows of every instrument Pair built back for the
// next source to reuse. Call it once nothing probes them again, after the
// extraction returns; probing one afterwards panics.
func (s *SpecSource) Release() {
	for _, pv := range s.built {
		if pv != nil {
			pv.Release()
		}
	}
}

// PairTruth implements TruthSource with the spec's analytic pair slopes.
func (s *SpecSource) PairTruth(i int) (steep, shallow float64) {
	return s.spec.PairTruth(i)
}
