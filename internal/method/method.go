// Package method is the one table of extraction methods and the one
// escalation ladder that runs them. The service's single-method jobs, the
// chain planner's pairs and the fleet's recalibrations all extract through
// Run or Ladder, so each method runs and reports one way everywhere.
//
// A method turns an instrument and a scan window into one Fit: the matrix,
// the two transition slopes and the triple point, in gate voltages. The
// fast, adaptive and infogain methods take the triple point from their
// fitted knee, the baseline from its knee pixel's centre; the ray fan does
// not locate it. Ladder tries rungs in order until one returns a Fit: a
// failed rung escalates to the next, and only cancellation aborts.
package method

import (
	"context"
	"errors"
	"fmt"

	"github.com/fastvg/fastvg/internal/baseline"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/infogain"
	"github.com/fastvg/fastvg/internal/rays"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// Name names an extraction method, or a caller's own ladder rung.
type Name string

// The methods in the table.
const (
	Fast     Name = "fast"     // the paper's method (core.Extract)
	Adaptive Name = "adaptive" // coarse-to-fine fast extraction
	Rays     Name = "rays"     // ray-casting comparison method
	InfoGain Name = "infogain" // Bayesian active probe scheduling
	Baseline Name = "baseline" // full CSD + Canny + Hough
)

// Options tunes the methods, one block per method; the zero value runs
// every method with its package defaults.
type Options struct {
	Fast     core.Config
	Adaptive core.AdaptiveConfig
	Rays     rays.Config
	InfoGain infogain.Config
	Baseline baseline.Config
}

// Fit is one successful extraction. TripleV1 and TripleV2 are zero for
// methods that do not locate the triple point.
type Fit struct {
	Matrix       virtualgate.Mat2
	SteepSlope   float64
	ShallowSlope float64
	TripleV1     float64
	TripleV2     float64
}

// table maps each method to its pipeline.
var table = map[Name]func(inst device.Instrument, win csd.Window, o *Options) (*Fit, error){
	Fast: func(inst device.Instrument, win csd.Window, o *Options) (*Fit, error) {
		r, err := core.Extract(csd.PixelSource{Src: inst, Win: win}, win, o.Fast)
		if err != nil {
			return nil, err
		}
		return kneeFit(r.Matrix, r.SteepSlope, r.ShallowSlope, r.TriplePointVoltage, win), nil
	},
	Adaptive: func(inst device.Instrument, win csd.Window, o *Options) (*Fit, error) {
		r, err := core.ExtractAdaptive(csd.PixelSource{Src: inst, Win: win}, win, o.Adaptive)
		if err != nil {
			return nil, err
		}
		f := r.Fine
		return kneeFit(f.Matrix, f.SteepSlope, f.ShallowSlope, f.TriplePointVoltage, win), nil
	},
	Rays: func(inst device.Instrument, win csd.Window, o *Options) (*Fit, error) {
		r, err := rays.Extract(csd.PixelSource{Src: inst, Win: win}, win, o.Rays)
		if err != nil {
			return nil, err
		}
		return &Fit{Matrix: r.Matrix, SteepSlope: r.SteepSlope, ShallowSlope: r.ShallowSlope}, nil
	},
	InfoGain: func(inst device.Instrument, win csd.Window, o *Options) (*Fit, error) {
		r, err := infogain.Extract(csd.PixelSource{Src: inst, Win: win}, win, o.InfoGain)
		if err != nil {
			return nil, err
		}
		return kneeFit(r.Matrix, r.SteepSlope, r.ShallowSlope, r.TriplePointVoltage, win), nil
	},
	// The baseline acquires the full CSD itself, through the instrument's
	// batched grid path when it has one.
	Baseline: func(inst device.Instrument, win csd.Window, o *Options) (*Fit, error) {
		r, err := baseline.Extract(inst, win, o.Baseline)
		if err != nil {
			return nil, err
		}
		return &Fit{
			Matrix: r.Matrix, SteepSlope: r.SteepSlope, ShallowSlope: r.ShallowSlope,
			TripleV1: win.V1Min + (r.Knee.X+0.5)*win.StepV1(),
			TripleV2: win.V2Min + (r.Knee.Y+0.5)*win.StepV2(),
		}, nil
	},
}

// kneeFit is the Fit of a method whose result locates the triple point.
func kneeFit(m virtualgate.Mat2, steep, shallow float64, triple func(csd.Window) (float64, float64), win csd.Window) *Fit {
	f := &Fit{Matrix: m, SteepSlope: steep, ShallowSlope: shallow}
	f.TripleV1, f.TripleV2 = triple(win)
	return f
}

// Valid reports whether name is a method in the table.
func Valid(name Name) bool {
	_, ok := table[name]
	return ok
}

// Run extracts one Fit with the named method, probing inst over win. A nil
// opts runs the defaults. A started method runs to completion — none polls
// ctx — so callers check cancellation between methods, as Ladder does.
func Run(ctx context.Context, name Name, inst device.Instrument, win csd.Window, opts *Options) (*Fit, error) {
	run, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("method: unknown method %q", name)
	}
	if opts == nil {
		opts = &Options{}
	}
	return run(inst, win, opts)
}

// Attempt is one rung of a ladder run.
type Attempt struct {
	Method Name   `json:"method"`
	Probes int    `json:"probes"`
	Error  string `json:"error,omitempty"`
}

// Outcome is the record of a ladder run. Winner and Fit are empty when
// every rung failed, and Err is then the last rung's error.
type Outcome struct {
	Attempts []Attempt
	Probes   int     // unique probes across all attempts
	DwellS   float64 // virtual dwell across all attempts, seconds
	Winner   Name
	Fit      *Fit
	Err      error
}

// Ladder runs rungs in order through run until one returns a Fit,
// measuring each attempt's probes and dwell on acct. A rung's error
// escalates to the next rung; a cancelled ctx, or a rung failing with a
// context error, aborts the ladder with that error.
func Ladder(ctx context.Context, acct device.Metered, rungs []Name, run func(ctx context.Context, rung Name) (*Fit, error)) (*Outcome, error) {
	out := &Outcome{}
	for _, rung := range rungs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := acct.Stats()
		fit, err := run(ctx, rung)
		after := acct.Stats()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		att := Attempt{Method: rung, Probes: after.UniqueProbes - before.UniqueProbes}
		if err != nil {
			att.Error = err.Error()
		}
		out.Attempts = append(out.Attempts, att)
		out.Probes += att.Probes
		out.DwellS += (after.Virtual - before.Virtual).Seconds()
		if err == nil {
			out.Winner, out.Fit, out.Err = rung, fit, nil
			return out, nil
		}
		out.Err = err
	}
	return out, nil
}
