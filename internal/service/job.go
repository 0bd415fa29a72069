// Package service is the extraction server core: a typed job model over
// every pipeline the repository implements, a deduplicating result cache
// keyed by canonical request hashes, a session registry owning live
// instruments, and a bounded scheduler (internal/sched) executing jobs
// concurrently. cmd/vgxd serves it over HTTP; the root package re-exports it
// as the Service façade.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/fastvg/fastvg/internal/anchors"
	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/core"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/infogain"
	"github.com/fastvg/fastvg/internal/rays"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// Kind names an extraction pipeline.
type Kind string

// The schedulable pipelines.
const (
	KindFast       Kind = "fast"       // the paper's method (core.Extract)
	KindBaseline   Kind = "baseline"   // full CSD + Canny + Hough
	KindRays       Kind = "rays"       // ray-casting comparison method
	KindAdaptive   Kind = "adaptive"   // coarse-to-fine fast extraction
	KindWindowFind Kind = "windowfind" // scan-window search (autotune)
	KindVerify     Kind = "verify"     // fast extraction + on-device matrix check
	KindChain      Kind = "chain"      // N-dot chain extraction (internal/chainx planner)
	KindInfoGain   Kind = "infogain"   // Bayesian active probe scheduling (internal/infogain)
)

// Kinds lists every valid job kind.
func Kinds() []Kind {
	return []Kind{KindFast, KindBaseline, KindRays, KindAdaptive, KindWindowFind, KindVerify, KindChain, KindInfoGain}
}

func (k Kind) valid() bool {
	switch k {
	case KindFast, KindBaseline, KindRays, KindAdaptive, KindWindowFind, KindVerify, KindChain, KindInfoGain:
		return true
	}
	return false
}

// FastOptions mirrors the root package's Options for fast and adaptive jobs.
type FastOptions struct {
	DiagonalProbes int     `json:"diagonalProbes,omitempty"` // default 10
	GaussSigmaFrac float64 `json:"gaussSigmaFrac,omitempty"` // default 0.25
	DisableFilter  bool    `json:"disableFilter,omitempty"`
	RowSweepOnly   bool    `json:"rowSweepOnly,omitempty"`
	NoShrink       bool    `json:"noShrink,omitempty"`
	CoarseFactor   int     `json:"coarseFactor,omitempty"` // adaptive jobs only; default 4
}

// BaselineOptions mirrors the root package's BaselineOptions.
type BaselineOptions struct {
	CannySigma     float64 `json:"cannySigma,omitempty"`
	CannyHighRatio float64 `json:"cannyHighRatio,omitempty"`
	NoRefine       bool    `json:"noRefine,omitempty"`
}

// RayOptions mirrors the root package's RayOptions.
type RayOptions struct {
	NumRays   int     `json:"numRays,omitempty"`   // default 24
	DropSigma float64 `json:"dropSigma,omitempty"` // default 6
}

// InfoGainOptions tunes infogain jobs (and the infogain rung of a chain
// ladder that includes it). Zero fields use the infogain package defaults;
// Validate rejects a block with any field outside its range below.
type InfoGainOptions struct {
	// TargetCI is the stopping rule: each matrix entry's 95% confidence
	// interval must be at most this wide. Must be ≥ 0; default
	// infogain.DefaultTargetCI.
	TargetCI float64 `json:"targetCI,omitempty"`
	// MaxProbes caps the active-phase probes before the scheduler gives up
	// and escalates. Must be ≥ 0; default infogain.DefaultMaxProbes. A cap
	// above the window's cell count is never reached: active probes do not
	// revisit a cell.
	MaxProbes int `json:"maxProbes,omitempty"`
	// NoiseEps is the assumed probe mislabel probability, in [0, 0.5): at
	// 0.5 a label carries no information. Default infogain.DefaultNoiseEps.
	NoiseEps float64 `json:"noiseEps,omitempty"`
	// MinProbes is the minimum active probes per line before stopping may
	// fire. Must be ≥ 0; default infogain.DefaultMinProbes.
	MinProbes int `json:"minProbes,omitempty"`
}

// validate checks the ranges documented on the fields.
func (o *InfoGainOptions) validate() error {
	switch {
	case o.TargetCI < 0:
		return fmt.Errorf("service: infoGain targetCI %g is negative", o.TargetCI)
	case o.MaxProbes < 0:
		return fmt.Errorf("service: infoGain maxProbes %d is negative", o.MaxProbes)
	case o.MinProbes < 0:
		return fmt.Errorf("service: infoGain minProbes %d is negative", o.MinProbes)
	case !(o.NoiseEps >= 0 && o.NoiseEps < 0.5):
		return fmt.Errorf("service: infoGain noiseEps %g outside [0, 0.5)", o.NoiseEps)
	}
	return nil
}

// WindowFindOptions bounds a windowfind job's coarse search.
type WindowFindOptions struct {
	V1Min  float64 `json:"v1Min"`
	V1Max  float64 `json:"v1Max"`
	V2Min  float64 `json:"v2Min"`
	V2Max  float64 `json:"v2Max"`
	Pixels int     `json:"pixels,omitempty"` // proposed window resolution; default 100
}

// VerifyOptions tunes a verify job's on-device matrix check.
type VerifyOptions struct {
	MaxShiftFrac float64 `json:"maxShiftFrac,omitempty"` // default 0.02
}

// ChainOptions tunes a chain job's planner. Normalization expands Windows
// to the explicit per-pair list (Dots−1 entries) and Methods to the full
// escalation ladder, so the canonical request hash covers the complete
// window list and ladder — two chain jobs dedupe only when every pair scans
// the same window under the same escalation.
type ChainOptions struct {
	// Windows are the per-pair scan windows; empty uses the spec's
	// recommended window for every pair, otherwise len must be Dots−1.
	Windows []csd.Window `json:"windows,omitempty"`
	// Methods is the per-pair escalation ladder; empty uses the chainx
	// default (fast → adaptive → rays).
	Methods []chainx.Method `json:"methods,omitempty"`
	// Budget caps the probes the whole chain may spend; 0 means unlimited.
	Budget int `json:"budget,omitempty"`
}

// Request describes one extraction job. Exactly one target must be set:
// Benchmark (a 1-based qflow suite index), Sim (a fresh simulated device
// built from the spec), Session (a live instrument in the registry), or
// ChainSim (a fresh N-dot chain device, chain jobs only). Benchmark, Sim
// and ChainSim jobs are deterministic in the request alone, so their
// results are cacheable; Session jobs run against stateful hardware-like
// instruments and always execute.
type Request struct {
	Kind      Kind                  `json:"kind"`
	Benchmark int                   `json:"benchmark,omitempty"`
	Sim       *device.DoubleDotSpec `json:"sim,omitempty"`
	Session   string                `json:"session,omitempty"`
	// ChainSim is the chain-job target: a fresh N-dot chain device built
	// from the spec, one independent instrument per adjacent pair. Chain
	// jobs are deterministic in the request alone, so they are cacheable.
	ChainSim *device.ChainSpec `json:"chainSim,omitempty"`

	Fast       *FastOptions       `json:"fast,omitempty"`
	Baseline   *BaselineOptions   `json:"baseline,omitempty"`
	Rays       *RayOptions        `json:"rays,omitempty"`
	WindowFind *WindowFindOptions `json:"windowFind,omitempty"`
	Verify     *VerifyOptions     `json:"verify,omitempty"`
	Chain      *ChainOptions      `json:"chain,omitempty"`
	InfoGain   *InfoGainOptions   `json:"infoGain,omitempty"`

	// canon is set only on a request the batch route prepared: the
	// request is then in canonical form, canon holds its cache hash and
	// ring key, and nothing writes to it (see prepare).
	canon *canonical
}

// canonical is what serving derives from a request's canonical form.
type canonical struct {
	hash string // Hash
	key  string // RouteKey
}

// SuiteSize is the qflow benchmark count (Table 1's 12 CSDs).
const SuiteSize = 12

// Validation errors.
var (
	ErrBadKind   = errors.New("service: unknown job kind")
	ErrBadTarget = errors.New("service: request needs exactly one of benchmark, sim or session")
)

// Validate checks the request is well-formed without touching the registry
// (session existence is checked at execution time).
func (r Request) Validate() error {
	if !r.Kind.valid() {
		return fmt.Errorf("%w %q", ErrBadKind, r.Kind)
	}
	targets := 0
	if r.Benchmark != 0 {
		targets++
		if r.Benchmark < 1 || r.Benchmark > SuiteSize {
			return fmt.Errorf("service: benchmark index %d out of range 1..%d", r.Benchmark, SuiteSize)
		}
	}
	if r.Sim != nil {
		targets++
		if err := r.Sim.CheckLimits(); err != nil {
			return fmt.Errorf("service: sim spec: %w", err)
		}
	}
	if r.Session != "" {
		targets++
	}
	if r.ChainSim != nil {
		targets++
		if err := r.ChainSim.CheckLimits(); err != nil {
			return fmt.Errorf("service: chain spec: %w", err)
		}
	}
	if targets != 1 {
		return ErrBadTarget
	}
	if r.InfoGain != nil {
		if err := r.InfoGain.validate(); err != nil {
			return err
		}
	}
	if (r.Kind == KindChain) != (r.ChainSim != nil) {
		return errors.New("service: chain jobs take a chainSim target, and only chain jobs may set one")
	}
	if r.Kind == KindChain {
		spec := *r.ChainSim
		spec.FillDefaults()
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("service: chain spec: %w", err)
		}
		if r.Chain != nil {
			if len(r.Chain.Windows) != 0 && len(r.Chain.Windows) != spec.Dots-1 {
				return fmt.Errorf("service: chain needs %d pair windows, got %d", spec.Dots-1, len(r.Chain.Windows))
			}
			for i, w := range r.Chain.Windows {
				if err := w.Validate(); err != nil {
					return fmt.Errorf("service: chain pair %d window: %w", i, err)
				}
				if w.Cols > device.MaxPixels || w.Rows > device.MaxPixels {
					return fmt.Errorf("service: chain pair %d window %dx%d exceeds %d pixels", i, w.Cols, w.Rows, device.MaxPixels)
				}
			}
			for _, m := range r.Chain.Methods {
				if !chainx.ValidMethod(m) {
					return fmt.Errorf("service: chain method %q unknown", m)
				}
			}
			if r.Chain.Budget < 0 {
				return errors.New("service: chain budget must be non-negative")
			}
		}
	}
	if r.Kind == KindWindowFind {
		if r.Benchmark != 0 {
			return errors.New("service: windowfind needs a sim or session target (benchmark windows are known)")
		}
		if r.WindowFind == nil {
			return errors.New("service: windowfind needs windowFind search bounds")
		}
		w := csd.Window{
			V1Min: r.WindowFind.V1Min, V1Max: r.WindowFind.V1Max,
			V2Min: r.WindowFind.V2Min, V2Max: r.WindowFind.V2Max,
			Cols: 2, Rows: 2, // bounds check only
		}
		if err := w.Validate(); err != nil {
			return fmt.Errorf("service: windowfind bounds: %w", err)
		}
		if r.WindowFind.Pixels > device.MaxPixels {
			return fmt.Errorf("service: windowfind pixels %d exceeds %d", r.WindowFind.Pixels, device.MaxPixels)
		}
	}
	return nil
}

// Normalized returns a copy with defaults made explicit and options
// irrelevant to the kind dropped, so every request that means the same
// extraction has one canonical form — and therefore one hash. This is what
// makes the result cache deduplicate "equivalent" submissions, not just
// byte-identical ones.
func (r Request) Normalized() (Request, error) {
	if err := r.Validate(); err != nil {
		return Request{}, err
	}
	n := Request{
		Kind:      r.Kind,
		Benchmark: r.Benchmark,
		Session:   r.Session,
	}
	if r.Sim != nil {
		spec := *r.Sim
		spec.FillDefaults()
		n.Sim = &spec
	}
	// Defaults come from the packages that own them, so canonical hashes
	// can never drift from what the pipelines actually run.
	anchorDefaults := anchors.DefaultConfig()
	fast := func() *FastOptions {
		f := FastOptions{}
		if r.Fast != nil {
			f = *r.Fast
		}
		if f.DiagonalProbes == 0 {
			f.DiagonalProbes = anchorDefaults.DiagonalPoints
		}
		if f.GaussSigmaFrac == 0 {
			f.GaussSigmaFrac = anchorDefaults.GaussSigmaFrac
		}
		return &f
	}
	infoGain := func() *InfoGainOptions {
		io := InfoGainOptions{}
		if r.InfoGain != nil {
			io = *r.InfoGain
		}
		if io.TargetCI == 0 {
			io.TargetCI = infogain.DefaultTargetCI
		}
		if io.MaxProbes == 0 {
			io.MaxProbes = infogain.DefaultMaxProbes
		}
		if io.NoiseEps == 0 {
			io.NoiseEps = infogain.DefaultNoiseEps
		}
		if io.MinProbes == 0 {
			io.MinProbes = infogain.DefaultMinProbes
		}
		return &io
	}
	rayOpts := func() *RayOptions {
		ro := RayOptions{}
		if r.Rays != nil {
			ro = *r.Rays
		}
		if ro.NumRays == 0 {
			ro.NumRays = rays.DefaultNumRays
		}
		if ro.DropSigma == 0 {
			ro.DropSigma = rays.DefaultDropSigma
		}
		return &ro
	}
	switch r.Kind {
	case KindFast:
		n.Fast = fast()
		n.Fast.CoarseFactor = 0
	case KindAdaptive:
		n.Fast = fast()
		if n.Fast.CoarseFactor == 0 {
			n.Fast.CoarseFactor = core.DefaultCoarseFactor
		}
	case KindBaseline:
		b := BaselineOptions{}
		if r.Baseline != nil {
			b = *r.Baseline
		}
		n.Baseline = &b
	case KindRays:
		n.Rays = rayOpts()
	case KindInfoGain:
		n.InfoGain = infoGain()
	case KindWindowFind:
		wf := *r.WindowFind
		if wf.Pixels == 0 {
			wf.Pixels = 100
		}
		n.WindowFind = &wf
	case KindVerify:
		n.Fast = fast()
		n.Fast.CoarseFactor = 0
		v := VerifyOptions{MaxShiftFrac: virtualgate.DefaultMaxShiftFrac}
		if r.Verify != nil && r.Verify.MaxShiftFrac != 0 {
			v.MaxShiftFrac = r.Verify.MaxShiftFrac
		}
		n.Verify = &v
	case KindChain:
		spec := *r.ChainSim
		spec.FillDefaults()
		n.ChainSim = &spec
		co := ChainOptions{}
		if r.Chain != nil {
			co = *r.Chain
		}
		// Expand the defaults into explicit form: the canonical hash must
		// cover the full per-pair window list and the full ladder.
		if len(co.Windows) == 0 {
			w := spec.Window()
			co.Windows = make([]csd.Window, spec.Dots-1)
			for i := range co.Windows {
				co.Windows[i] = w
			}
		} else {
			co.Windows = append([]csd.Window(nil), co.Windows...)
		}
		if len(co.Methods) == 0 {
			co.Methods = chainx.DefaultLadder()
		} else {
			co.Methods = append([]chainx.Method(nil), co.Methods...)
		}
		n.Chain = &co
		// The infogain rung's knobs enter the canonical hash only when the
		// ladder actually includes it, so pre-existing chain request hashes
		// are unchanged.
		for _, m := range co.Methods {
			if m == chainx.MethodInfoGain {
				n.InfoGain = infoGain()
				break
			}
		}
		n.Fast = fast()
		if n.Fast.CoarseFactor == 0 {
			n.Fast.CoarseFactor = core.DefaultCoarseFactor
		}
		n.Rays = rayOpts()
	}
	return n, nil
}

// Cacheable reports whether the request's result is a pure function of the
// request itself. Session jobs depend on (and advance) live instrument
// state, so they bypass the result cache; surrogate-enabled jobs do the same
// with twin state (the probe split depends on how trained the twin is).
func (r Request) Cacheable() bool { return r.Session == "" && !r.surrogateActive() }

// surrogateActive reports whether the request asks for twin-first probing.
func (r Request) surrogateActive() bool {
	if r.Sim != nil && r.Sim.Surrogate != nil && r.Sim.Surrogate.Threshold > 0 {
		return true
	}
	if r.ChainSim != nil && r.ChainSim.Surrogate != nil && r.ChainSim.Surrogate.Threshold > 0 {
		return true
	}
	return false
}

// Canonical returns the canonical JSON encoding of the normalized request.
// encoding/json emits struct fields in declaration order, so the encoding is
// deterministic; normalization makes it unique per extraction semantics.
func (r Request) Canonical() ([]byte, error) {
	n, err := r.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the canonical request hash (hex SHA-256 prefix) used as the
// result-cache and deduplication key; a request the batch route prepared
// answers the hash computed then.
func (r Request) Hash() (string, error) {
	_, hash, err := r.canonicalForm()
	return hash, err
}

// hashNormalized hashes a request that is already in canonical form, saving
// the serving path a second normalization (Normalized is idempotent, so
// this equals Hash on the original request).
func hashNormalized(n Request) (string, error) {
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	return hashCanonical(b), nil
}

// hashCanonical hashes a canonical JSON encoding.
func hashCanonical(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// canonicalForm returns the normalized request and its hash: read off a
// prepared request, derived for any other.
func (r Request) canonicalForm() (Request, string, error) {
	if r.canon != nil {
		return r, r.canon.hash, nil
	}
	n, err := r.Normalized()
	if err != nil {
		return Request{}, "", err
	}
	hash, err := hashNormalized(n)
	return n, hash, err
}

// prepare returns r in canonical form carrying its cache hash and ring
// key, and the length of its canonical JSON, the measure the batch memo
// bounds. ok is false for a request without a ring key (a session
// request) or one that does not normalise. Normalized copies the specs
// and option blocks, so once the caller drops r, a prepared request can
// be shared read-only.
func (r Request) prepare() (p Request, size int, ok bool) {
	n, err := r.Normalized()
	if err != nil {
		return Request{}, 0, false
	}
	b, err := json.Marshal(n)
	if err != nil {
		return Request{}, 0, false
	}
	key, err := n.routeKey()
	if err != nil {
		return Request{}, 0, false
	}
	n.canon = &canonical{hash: hashCanonical(b), key: key}
	return n, len(b), true
}

// VerifyReport is the verify-job extension of a Result.
type VerifyReport struct {
	OK           bool    `json:"ok"`
	SteepShift   float64 `json:"steepShift"`   // mV of steep-line drift under virtual stepping
	ShallowShift float64 `json:"shallowShift"` // mV of shallow-line drift
}

// ChainReport is the chain-job extension of a Result: the composed chain's
// off-diagonals and every pair's outcome in index order. It contains no
// worker-count- or wall-clock-dependent field, so it is as cacheable and
// replay-comparable as the scalar results.
type ChainReport struct {
	Dots int `json:"dots"`
	// A12/A21 are the composed chain's tridiagonal compensation terms (len
	// Dots−1); empty when any pair failed.
	A12 []float64 `json:"a12,omitempty"`
	A21 []float64 `json:"a21,omitempty"`
	// Pairs holds per-pair matrices, methods, escalation attempts and costs.
	Pairs []chainx.PairResult `json:"pairs"`
	// BudgetDenied counts pairs the probe-budget accountant refused.
	BudgetDenied int `json:"budgetDenied,omitempty"`
	// Surrogate holds the per-pair twin reports of a surrogate-enabled chain
	// job, in pair order; a zero-keyed entry marks a pair never probed
	// (budget-denied before its instrument was wrapped).
	Surrogate []SurrogateReport `json:"surrogate,omitempty"`
}

// Result is the serialisable outcome of a job. Cached results are immutable;
// the service stamps the per-retrieval Cached flag on a copy.
type Result struct {
	Kind      Kind   `json:"kind"`
	Benchmark int    `json:"benchmark,omitempty"`
	Session   string `json:"session,omitempty"`
	Hash      string `json:"hash"`
	Cached    bool   `json:"cached"`

	// Error records an extraction-pipeline failure (e.g. the Hough baseline
	// finding only one line). Pipeline failures are deterministic in the
	// request — the instruments replay identically — so they are results,
	// not transport errors, and repeat submissions hit the cache like any
	// other outcome. Probe/time accounting below is still valid.
	Error string `json:"error,omitempty"`

	SteepSlope   float64 `json:"steepSlope,omitempty"`
	ShallowSlope float64 `json:"shallowSlope,omitempty"`
	A12          float64 `json:"a12,omitempty"` // virtualization matrix off-diagonals
	A21          float64 `json:"a21,omitempty"`
	TripleV1     float64 `json:"tripleV1,omitempty"` // fitted line intersection, mV
	TripleV2     float64 `json:"tripleV2,omitempty"`

	Probes      int     `json:"probes"`             // distinct configurations measured
	ProbePct    float64 `json:"probePct,omitempty"` // of the window's pixels
	ExperimentS float64 `json:"experimentS"`        // dwell time on the virtual clock, seconds
	ComputeS    float64 `json:"computeS"`           // wall-clock algorithm time, seconds

	// Scored is true when analytic ground truth was available (benchmark and
	// sim targets); Success then reports the paper's accuracy criterion.
	Scored        bool    `json:"scored"`
	Success       bool    `json:"success"`
	SteepErrDeg   float64 `json:"steepErrDeg,omitempty"`
	ShallowErrDeg float64 `json:"shallowErrDeg,omitempty"`

	Window    *csd.Window      `json:"window,omitempty"`    // windowfind proposal
	Verify    *VerifyReport    `json:"verify,omitempty"`    // verify-job check
	Chain     *ChainReport     `json:"chain,omitempty"`     // chain-job per-pair results
	Surrogate *SurrogateReport `json:"surrogate,omitempty"` // twin-first probing split
}
