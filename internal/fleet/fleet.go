// Package fleet closes the calibration loop at fleet scale. A Manager owns
// many simulated devices whose lever arms wander under drift, 1/f and jump
// noise (device.LeverDrift), tracks the freshness of each device's extracted
// virtual-gate matrices with cheap periodic virtualgate.Verify spot-checks on
// a shared virtual clock, scores staleness against the positions recorded at
// calibration time, and schedules re-extractions on the service's worker
// pool (internal/sched) under a global probe budget — priority is
// staleness × device weight, with hysteresis (a healthy band plus a
// per-pair cooldown) so healthy devices are never re-tuned.
//
// Devices come in two shapes. A double-dot device carries one scan window
// and one 2×2 matrix. A chain device (device.ChainSpec) carries N−1
// adjacent-pair calibrations, each with its own independent instrument,
// window, matrix and staleness score — so when a single pair drifts past
// the threshold, only that pair is re-extracted (partial recalibration,
// budget-admitted like everything else) while its neighbours' fresh
// matrices are reused. Internally a double dot is simply a one-pair device:
// every scheduling decision is per (device, pair).
//
// With Policy.SurrogateThreshold set, every pair probes surrogate-first: a
// learned digital twin (internal/surrogate) answers the plateau probes a
// spot-check or re-extraction would otherwise spend live dwell on, while the
// guard band around the twin's fitted transition lines — exactly where drift
// shows — always escalates to the instrument. Drift detection on healthy
// devices becomes near-free; the saved measurements are counted as
// ProbesSaved at every level (event, pair, device, fleet). Twins are refit
// after each successful extraction, reset when a pair is lost or a
// calibration fails, and journaled alongside the device state so a restart
// warm-starts them.
//
// Everything the manager decides is deterministic for fixed device seeds:
// spot-checks and re-extractions fan out across workers, but each job touches
// only its own pair's instrument, and all cross-pair decisions (budget
// admission, priority order, accounting, history and journal writes) happen
// serially in (device ID, pair) order at phase barriers. A simulated day
// therefore produces a byte-identical summary at any worker count.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fitting"
	"github.com/fastvg/fastvg/internal/infogain"
	"github.com/fastvg/fastvg/internal/method"
	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// ErrUnknownDevice is returned for operations on an unregistered device ID.
var ErrUnknownDevice = errors.New("fleet: unknown device")

// LostStaleness is the finite sentinel staleness of a pair whose
// transition lines could not be re-located (or that has never been
// calibrated): large enough to dominate any real score and any weight, and —
// unlike +Inf — JSON-encodable.
const LostStaleness = 1e6

// HealthyFrac bounds the staleness hysteresis band: below
// HealthyFrac·Policy.StaleThreshold a pair is "healthy", between the two
// it is "watch" (monitored, never re-tuned).
const HealthyFrac = 0.5

// CheckReserve and RecalReserve are the probes reserved when admitting a
// spot-check / pair re-extraction against Policy.Budget. Admission is by
// reservation, accounting by actual probes spent — with reserves at or
// above the worst observed costs (a spot-check is geometrically bounded by
// its scan widths, a 100×100 pair re-extraction plus baseline check
// measures ≈ 1100 probes), a window can never overspend its budget.
const (
	CheckReserve = 80
	RecalReserve = 1500
)

// Policy tunes the fleet calibration loop; the zero value is a reasonable
// lab-day configuration.
type Policy struct {
	// CheckInterval is the virtual time (seconds) between freshness
	// spot-checks of a calibrated pair; default 900 (15 min).
	CheckInterval float64 `json:"checkInterval,omitempty"`
	// CheckFracs are the along-line fractions of each spot-check (the
	// VerifyConfig.AlongFracs); default {0.35, 0.65}.
	CheckFracs []float64 `json:"checkFracs,omitempty"`
	// CheckScanFrac is the spot-check scan half-width as a window-span
	// fraction; default 0.08 — roughly half the extraction-grade scan, since
	// a spot-check only needs to see a line that has barely moved.
	CheckScanFrac float64 `json:"checkScanFrac,omitempty"`
	// MaxShiftFrac is the line-drift tolerance (window-span fraction) that
	// normalises staleness: a score of 1 means the lines have moved by
	// exactly the tolerance; default virtualgate.DefaultMaxShiftFrac.
	MaxShiftFrac float64 `json:"maxShiftFrac,omitempty"`
	// StaleThreshold is the staleness score at which a pair is scheduled
	// for re-extraction; default 1.
	StaleThreshold float64 `json:"staleThreshold,omitempty"`
	// Cooldown is the minimum virtual time (seconds) between recalibration
	// attempts of one pair, the second hysteresis guard; default 1800.
	Cooldown float64 `json:"cooldown,omitempty"`
	// InfoGain, when true, routes scheduled pair re-extractions through the
	// Bayesian active probe scheduler (internal/infogain), warm-started on
	// the pair's last known line geometry — a guided re-location scan that
	// needs an order of magnitude fewer probes than the full extraction
	// raster. Infogain failures (posterior non-convergence, seeding misses)
	// fall back to the raster; first calibrations and operator forces always
	// run the raster.
	InfoGain bool `json:"infoGain,omitempty"`
	// SurrogateThreshold, when positive, probes every pair surrogate-first:
	// a learned digital twin (internal/surrogate) answers spot-check and
	// re-extraction probes whose confidence clears the threshold, and only
	// the rest — the guard band around the transition lines, where drift
	// shows — reach the live instrument. surrogate.DefaultThreshold is the
	// tuned value; zero (the default) keeps every probe live.
	SurrogateThreshold float64 `json:"surrogateThreshold,omitempty"`
	// Budget caps the probes the whole fleet may spend per BudgetWindow on
	// monitoring plus recalibration, admitted at CheckReserve and
	// RecalReserve; 0 means unlimited.
	Budget int `json:"budget,omitempty"`
	// BudgetWindow is the budget accounting period in virtual seconds;
	// default 86400 (one day).
	BudgetWindow float64 `json:"budgetWindow,omitempty"`
	// HistoryCap bounds each device's retained in-memory calibration
	// history ring (what History and the /v1/fleet history endpoint serve);
	// default 128 events. With a journal attached the ring's durable copy
	// is the audit log: every event is persisted as an audit record, served
	// in full by JournalHistory, and a restart keeps the newest
	// min(HistoryCap, retained) of a device's events. The store's AuditCap
	// (default 65,536 records) is shared by all devices, so a device whose
	// events aged out of it restores a shorter ring — at equal event rates
	// that takes more than ~512 devices.
	HistoryCap int `json:"historyCap,omitempty"`
}

func (p *Policy) fillDefaults() {
	if p.CheckInterval == 0 {
		p.CheckInterval = 900
	}
	if len(p.CheckFracs) == 0 {
		p.CheckFracs = []float64{0.35, 0.65}
	}
	if p.CheckScanFrac == 0 {
		p.CheckScanFrac = 0.08
	}
	if p.MaxShiftFrac == 0 {
		p.MaxShiftFrac = virtualgate.DefaultMaxShiftFrac
	}
	if p.StaleThreshold == 0 {
		p.StaleThreshold = 1
	}
	if p.Cooldown == 0 {
		p.Cooldown = 1800
	}
	if p.BudgetWindow == 0 {
		p.BudgetWindow = 86400
	}
	if p.HistoryCap == 0 {
		p.HistoryCap = 128
	}
}

// DeviceConfig registers one device with the fleet.
type DeviceConfig struct {
	// ID names the device; empty picks dev-NNN in registration order.
	ID string `json:"id,omitempty"`
	// Weight scales the device's recalibration priority; default 1.
	Weight float64 `json:"weight,omitempty"`
	// Spec describes a simulated double-dot device, including its lever-arm
	// drift. Ignored when Chain is set.
	Spec device.DoubleDotSpec `json:"spec"`
	// Chain, when set, registers an N-dot chain device instead: one
	// independent instrument, matrix and staleness score per adjacent pair.
	Chain *device.ChainSpec `json:"chain,omitempty"`
}

// Event is one entry of a device's calibration history.
type Event struct {
	T    float64 `json:"t"`    // virtual fleet time, seconds
	Kind string  `json:"kind"` // calibrate | recalibrate | force | check | calibrate-failed
	// Pair is the adjacent-pair index the event concerns (always 0 for
	// double-dot devices).
	Pair int `json:"pair"`
	// Staleness is the pair's score after the event (LostStaleness when
	// the lines could not be located).
	Staleness float64 `json:"staleness"`
	Probes    int     `json:"probes"` // live probes the event cost
	// ProbesSaved counts probes the pair's surrogate twin answered during
	// the event — measurements that never reached the device.
	ProbesSaved int `json:"probesSaved,omitempty"`
	// Delta marks a recalibration that re-located the lines with a few
	// cross scans instead of a full re-raster — the twin-enabled cheap path.
	Delta bool `json:"delta,omitempty"`
	// InfoGain marks a recalibration served by the active probe scheduler's
	// guided re-location scan instead of the full raster.
	InfoGain bool    `json:"infoGain,omitempty"`
	OK       bool    `json:"ok"`
	A12      float64 `json:"a12,omitempty"` // matrix after (re)calibration events
	A21      float64 `json:"a21,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// Device states reported by DeviceView.State and PairStatus.State.
const (
	StateUncalibrated = "uncalibrated"
	StateHealthy      = "healthy"
	StateWatch        = "watch" // inside the hysteresis band: monitored, not re-tuned
	StateStale        = "stale"
	StateLost         = "lost" // spot-check could not re-locate the lines
)

// PairStatus is a serialisable snapshot of one adjacent pair's calibration.
type PairStatus struct {
	Pair           int     `json:"pair"`
	State          string  `json:"state"`
	Calibrated     bool    `json:"calibrated"`
	Staleness      float64 `json:"staleness"`
	MaxStaleness   float64 `json:"maxStaleness"`
	Checks         int     `json:"checks"`
	Calibrations   int     `json:"calibrations"`
	Forced         int     `json:"forced"`
	FailedCals     int     `json:"failedCals"`
	LostEvents     int     `json:"lostEvents"`
	Probes         int     `json:"probes"`
	ProbesSaved    int     `json:"probesSaved"`
	LastCalT       float64 `json:"lastCalT"`
	LastCheckT     float64 `json:"lastCheckT"`
	A12            float64 `json:"a12"`
	A21            float64 `json:"a21"`
	SteepSlope     float64 `json:"steepSlope"`
	ShallowSlope   float64 `json:"shallowSlope"`
	BudgetDeferred int     `json:"budgetDeferred"`
}

// DeviceView is a serialisable device snapshot. The scalar fields aggregate
// over the device's pairs (worst staleness, summed counters); Pairs breaks
// them down, and for double-dot devices holds exactly one entry whose
// fields match the aggregates.
type DeviceView struct {
	ID             string  `json:"id"`
	Weight         float64 `json:"weight"`
	Dots           int     `json:"dots"` // 2 for double-dot devices
	State          string  `json:"state"`
	Calibrated     bool    `json:"calibrated"` // every pair calibrated
	Staleness      float64 `json:"staleness"`  // worst pair score
	MaxStaleness   float64 `json:"maxStaleness"`
	Checks         int     `json:"checks"`
	Calibrations   int     `json:"calibrations"` // successful pair extractions, initial included
	Forced         int     `json:"forced"`
	FailedCals     int     `json:"failedCals"`
	LostEvents     int     `json:"lostEvents"`
	Probes         int     `json:"probes"`
	ProbesSaved    int     `json:"probesSaved"`
	LastCalT       float64 `json:"lastCalT"`
	LastCheckT     float64 `json:"lastCheckT"`
	A12            float64 `json:"a12"` // pair 0, for double-dot compatibility
	A21            float64 `json:"a21"`
	SteepSlope     float64 `json:"steepSlope"`
	ShallowSlope   float64 `json:"shallowSlope"`
	BudgetDeferred int     `json:"budgetDeferred"`

	Pairs []PairStatus `json:"pairs"`
}

// Status is a fleet-wide snapshot.
type Status struct {
	Now             float64      `json:"now"` // virtual fleet time, seconds
	DeviceCount     int          `json:"deviceCount"`
	PairCount       int          `json:"pairCount"` // scheduling units across the fleet
	Budget          int          `json:"budget"`
	BudgetWindowS   float64      `json:"budgetWindowS"`
	BudgetUsed      int          `json:"budgetUsed"` // in the current window
	Checks          int          `json:"checks"`
	Calibrations    int          `json:"calibrations"`
	Recalibrations  int          `json:"recalibrations"`
	PartialRecals   int          `json:"partialRecals"` // recals of a strict subset of a device's pairs in one tick
	Forced          int          `json:"forced"`
	FailedCals      int          `json:"failedCals"`
	LostEvents      int          `json:"lostEvents"`
	ProbesSpent     int          `json:"probesSpent"`
	ProbesSaved     int          `json:"probesSaved"` // surrogate-served probes fleet-wide
	MaxWindowProbes int          `json:"maxWindowProbes"`
	SkippedBudget   int          `json:"skippedBudget"` // admissions deferred for budget
	WorstStaleness  float64      `json:"worstStaleness"`
	Devices         []DeviceView `json:"devices"`
}

// TickReport summarises one Tick. Checked and Recalibrated list scheduling
// units as "<device>" for single-pair devices and "<device>/<pair>" for
// chain pairs, in the deterministic admission order.
type TickReport struct {
	Now           float64  `json:"now"`
	Checked       []string `json:"checked,omitempty"`
	Recalibrated  []string `json:"recalibrated,omitempty"`
	CheckProbes   int      `json:"checkProbes"`
	RecalProbes   int      `json:"recalProbes"`
	ProbesSaved   int      `json:"probesSaved"` // surrogate-served, both phases
	SkippedBudget int      `json:"skippedBudget"`
}

// pairCal is one adjacent pair's calibration state — the fleet's scheduling
// unit. Guarded by the owning dev's mu.
type pairCal struct {
	idx  int
	inst device.Metered      // SimInstrument, or a chain pair's PairView
	adv  func(time.Duration) // advances the pair's instrument clock
	win  csd.Window

	hasCal         bool
	matrix         virtualgate.Mat2
	kneeV1, kneeV2 float64
	steep, shallow float64
	baseSteep      []float64 // verify positions recorded at calibration
	baseShallow    []float64

	score  float64 // current staleness (LostStaleness when lines lost / uncalibrated)
	scoreT float64 // virtual time the score was measured
	lost   bool

	lastCalT     float64
	lastAttemptT float64
	lastCheckT   float64
	attempts     int

	maxFinite      float64
	checks         int
	calibrations   int
	forced         int
	failedCals     int
	lostEvents     int
	probes         int
	probesSaved    int
	budgetDeferred int

	// model is the pair's surrogate twin, lazily created when the policy
	// enables surrogate-first probing. It learns from every escalated probe,
	// is refit after each successful extraction and reset when the pair is
	// lost or a calibration fails.
	model *surrogate.Model

	// per-phase scratch, written by the pair's own pool job and read back
	// at the phase barrier
	phaseProbes     int
	phaseSaved      int
	phaseEv         Event
	phaseHasEv      bool
	phaseModelDirty bool // twin refit or reset: journal it at the barrier
}

// dev is the manager's per-device record. mu serialises instrument access
// and guards every mutable field; the manager's scheduling loops only read
// or write a device while holding it.
type dev struct {
	id     string
	weight float64
	spec   device.DoubleDotSpec
	chain  *device.ChainSpec // nil for double-dot devices

	mu      sync.Mutex
	pairs   []*pairCal
	history []Event
	head    []byte // journal record prefix, built once by record
}

// dots returns the device's dot count.
func (d *dev) dots() int {
	if d.chain != nil {
		return d.chain.Dots
	}
	return 2
}

// unit is one (device, pair) scheduling unit.
type unit struct {
	d  *dev
	pc *pairCal
}

// label renders the unit for tick reports: bare device ID for single-pair
// devices, "<id>/<pair>" for chain pairs.
func (u unit) label() string {
	if len(u.d.pairs) == 1 {
		return u.d.id
	}
	return fmt.Sprintf("%s/%d", u.d.id, u.pc.idx)
}

// Manager owns the fleet.
type Manager struct {
	pool *sched.Pool
	pol  Policy

	mu      sync.Mutex // guards the registry, fleet-wide accounting and journal
	journal *store.Store
	devices map[string]*dev
	order   []string // sorted device IDs
	nextID  int

	now         float64
	windowStart float64
	budgetUsed  int

	checks          int
	calibrations    int
	recalibrations  int
	partialRecals   int
	forced          int
	failedCals      int
	lostEvents      int
	probesSpent     int
	probesSaved     int
	maxWindowProbes int
	skippedBudget   int
	worstStaleness  float64

	// tel mirrors the counters above into a telemetry registry; nil until
	// AttachTelemetry, and attached before traffic so no event is missed.
	tel *fleetTelemetry

	tickMu sync.Mutex // serialises Tick/Run: there is one virtual clock
}

// New builds a fleet manager scheduling its measurement work on pool —
// normally the extraction service's own worker pool, so fleet recalibration
// traffic and interactive jobs share the same bounded slots.
func New(pool *sched.Pool, pol Policy) *Manager {
	pol.fillDefaults()
	return &Manager{
		pool:    pool,
		pol:     pol,
		devices: make(map[string]*dev),
	}
}

// Policy returns the manager's filled-in policy.
func (m *Manager) Policy() Policy { return m.pol }

// MaxClockS bounds the virtual fleet clock, in seconds. Every pair
// instrument keeps its clock as a time.Duration (int64 nanoseconds, ~292
// years) that also accumulates probe dwell, so the fleet clock stops at
// half that range and leaves the rest as dwell headroom.
const MaxClockS = float64(math.MaxInt64/int64(time.Second)) / 2

// CheckAdvance reports whether ticks ticks of dt seconds each would be
// accepted, without changing any state: dt must be positive and finite,
// and the fleet clock must stay within MaxClockS. API handlers call it
// before the first of a batch of ticks, so a batch that would fail part
// way is rejected whole.
func (m *Manager) CheckAdvance(dt float64, ticks int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkAdvanceLocked(dt, ticks)
}

func (m *Manager) checkAdvanceLocked(dt float64, ticks int) error {
	if !(dt > 0) || math.IsInf(dt, 1) {
		return fmt.Errorf("fleet: tick duration %v must be positive and finite", dt)
	}
	if m.now+dt*float64(ticks) > MaxClockS {
		return fmt.Errorf("fleet: advancing %d x %v s from %v s passes the %v s clock limit", ticks, dt, m.now, MaxClockS)
	}
	return nil
}

// Now returns the virtual fleet time in seconds.
func (m *Manager) Now() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// DeviceCount returns the number of registered devices without touching any
// device's state — cheap enough for liveness probes even while calibrations
// hold device locks.
func (m *Manager) DeviceCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.order)
}

// buildPairs constructs a device's scheduling units from its spec.
func buildPairs(cfg *DeviceConfig) ([]*pairCal, error) {
	if cfg.Chain != nil {
		spec := *cfg.Chain
		spec.FillDefaults()
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		cfg.Chain = &spec
		pairs := make([]*pairCal, spec.Dots-1)
		for i := range pairs {
			pv, win, err := spec.BuildPair(i)
			if err != nil {
				return nil, err
			}
			pairs[i] = &pairCal{
				idx: i, inst: pv, adv: pv.M.Advance, win: win,
				score: LostStaleness,
			}
		}
		return pairs, nil
	}
	inst, win, err := cfg.Spec.Build()
	if err != nil {
		return nil, err
	}
	return []*pairCal{{
		idx: 0, inst: inst, adv: inst.Advance, win: win,
		score: LostStaleness,
	}}, nil
}

// Register adds a device to the fleet. Every pair starts uncalibrated with
// sentinel staleness, so the next Ticks schedule its initial extractions
// (budget permitting). Specs outside their CheckLimits are rejected.
func (m *Manager) Register(cfg DeviceConfig) (DeviceView, error) {
	if cfg.Weight < 0 {
		return DeviceView{}, errors.New("fleet: negative device weight")
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	if err := cfg.Spec.CheckLimits(); err != nil {
		return DeviceView{}, fmt.Errorf("fleet: %w", err)
	}
	if cfg.Chain != nil {
		if err := cfg.Chain.CheckLimits(); err != nil {
			return DeviceView{}, fmt.Errorf("fleet: %w", err)
		}
	}
	pairs, err := buildPairs(&cfg)
	if err != nil {
		return DeviceView{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := cfg.ID
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("dev-%03d", m.nextID)
	}
	if _, dup := m.devices[id]; dup {
		return DeviceView{}, fmt.Errorf("fleet: device %q already registered", id)
	}
	d := &dev{
		id:     id,
		weight: cfg.Weight,
		spec:   cfg.Spec,
		chain:  cfg.Chain,
		pairs:  pairs,
	}
	// Keep the instrument clocks aligned with the fleet clock for devices
	// registered mid-run. Persist before inserting: a device the journal
	// cannot remember would silently lose its calibration lineage on the
	// next restart, so a failed journal write fails the registration.
	for _, pc := range d.pairs {
		pc.adv(time.Duration(m.now * float64(time.Second)))
	}
	if m.journal != nil {
		data, err := d.record()
		if err == nil {
			err = m.journal.PutBatch(
				store.Record{Kind: store.KindFleetDevice, Key: d.id, Data: data},
				store.Record{Kind: store.KindFleetClock, Data: m.clockSnapshotLocked()},
			)
		}
		if err != nil {
			return DeviceView{}, err
		}
	}
	m.devices[id] = d
	m.order = append(m.order, id)
	sort.Strings(m.order)
	if m.tel != nil {
		m.tel.devices.Set(float64(len(m.order)))
		m.tel.pairs.Add(float64(len(d.pairs)))
	}
	return d.view(m.pol), nil
}

// Device returns a snapshot of one device.
func (m *Manager) Device(id string) (DeviceView, bool) {
	m.mu.Lock()
	d, ok := m.devices[id]
	m.mu.Unlock()
	if !ok {
		return DeviceView{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.view(m.pol), true
}

// History returns a device's calibration history, oldest first.
func (m *Manager) History(id string) ([]Event, bool) {
	m.mu.Lock()
	d, ok := m.devices[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Event(nil), d.history...), true
}

// Status returns a fleet-wide snapshot with devices in ID order.
func (m *Manager) Status() Status {
	m.mu.Lock()
	st := Status{
		Now:             m.now,
		DeviceCount:     len(m.order),
		Budget:          m.pol.Budget,
		BudgetWindowS:   m.pol.BudgetWindow,
		BudgetUsed:      m.budgetUsed,
		Checks:          m.checks,
		Calibrations:    m.calibrations,
		Recalibrations:  m.recalibrations,
		PartialRecals:   m.partialRecals,
		Forced:          m.forced,
		FailedCals:      m.failedCals,
		LostEvents:      m.lostEvents,
		ProbesSpent:     m.probesSpent,
		ProbesSaved:     m.probesSaved,
		MaxWindowProbes: m.maxWindowProbes,
		SkippedBudget:   m.skippedBudget,
		WorstStaleness:  m.worstStaleness,
	}
	devs := m.snapshot()
	m.mu.Unlock()
	for _, d := range devs {
		d.mu.Lock()
		st.Devices = append(st.Devices, d.view(m.pol))
		st.PairCount += len(d.pairs)
		d.mu.Unlock()
	}
	return st
}

// snapshot returns the devices in ID order; callers hold m.mu.
func (m *Manager) snapshot() []*dev {
	out := make([]*dev, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.devices[id])
	}
	return out
}

// pairStatus renders one pair; callers hold d.mu.
func (pc *pairCal) status(pol Policy) PairStatus {
	s := PairStatus{
		Pair:           pc.idx,
		State:          pc.state(pol),
		Calibrated:     pc.hasCal,
		Staleness:      pc.score,
		MaxStaleness:   pc.maxFinite,
		Checks:         pc.checks,
		Calibrations:   pc.calibrations,
		Forced:         pc.forced,
		FailedCals:     pc.failedCals,
		LostEvents:     pc.lostEvents,
		Probes:         pc.probes,
		ProbesSaved:    pc.probesSaved,
		LastCalT:       pc.lastCalT,
		LastCheckT:     pc.lastCheckT,
		BudgetDeferred: pc.budgetDeferred,
	}
	if pc.hasCal {
		s.A12, s.A21 = pc.matrix.A12(), pc.matrix.A21()
		s.SteepSlope, s.ShallowSlope = pc.steep, pc.shallow
	}
	return s
}

// view renders the device; callers hold d.mu.
func (d *dev) view(pol Policy) DeviceView {
	v := DeviceView{
		ID:         d.id,
		Weight:     d.weight,
		Dots:       d.dots(),
		Calibrated: true,
	}
	for _, pc := range d.pairs {
		ps := pc.status(pol)
		v.Pairs = append(v.Pairs, ps)
		v.Calibrated = v.Calibrated && pc.hasCal
		if ps.Staleness > v.Staleness {
			v.Staleness = ps.Staleness
		}
		if ps.MaxStaleness > v.MaxStaleness {
			v.MaxStaleness = ps.MaxStaleness
		}
		v.Checks += ps.Checks
		v.Calibrations += ps.Calibrations
		v.Forced += ps.Forced
		v.FailedCals += ps.FailedCals
		v.LostEvents += ps.LostEvents
		v.Probes += ps.Probes
		v.ProbesSaved += ps.ProbesSaved
		v.BudgetDeferred += ps.BudgetDeferred
		if ps.LastCalT > v.LastCalT {
			v.LastCalT = ps.LastCalT
		}
		if ps.LastCheckT > v.LastCheckT {
			v.LastCheckT = ps.LastCheckT
		}
	}
	v.State = d.state(pol)
	if p0 := d.pairs[0]; p0.hasCal {
		v.A12, v.A21 = p0.matrix.A12(), p0.matrix.A21()
		v.SteepSlope, v.ShallowSlope = p0.steep, p0.shallow
	}
	return v
}

// state classifies a pair against the hysteresis band; callers hold d.mu.
func (pc *pairCal) state(pol Policy) string {
	switch {
	case !pc.hasCal:
		return StateUncalibrated
	case pc.lost:
		return StateLost
	case pc.score >= pol.StaleThreshold:
		return StateStale
	case pc.score >= HealthyFrac*pol.StaleThreshold:
		return StateWatch
	default:
		return StateHealthy
	}
}

// state classifies the device as its worst pair; callers hold d.mu.
func (d *dev) state(pol Policy) string {
	rank := map[string]int{
		StateHealthy: 0, StateWatch: 1, StateStale: 2, StateLost: 3, StateUncalibrated: 4,
	}
	worst := StateHealthy
	for _, pc := range d.pairs {
		if s := pc.state(pol); rank[s] > rank[worst] {
			worst = s
		}
	}
	return worst
}

// checkConfig is the spot-check VerifyConfig.
func (m *Manager) checkConfig() virtualgate.VerifyConfig {
	return virtualgate.VerifyConfig{
		AlongFracs:   m.pol.CheckFracs,
		ScanFrac:     m.pol.CheckScanFrac,
		MaxShiftFrac: m.pol.MaxShiftFrac,
	}
}

// Tick advances the virtual fleet clock by dt seconds and runs one
// monitoring round: freshness spot-checks for calibrated pairs whose check
// interval elapsed, then budget-admitted re-extractions for stale pairs in
// priority order — for a chain device that usually means re-extracting only
// the drifted pair. A dt that CheckAdvance rejects is an error and changes
// nothing. Ticks are serialised; concurrent Status/Register calls
// interleave safely.
func (m *Manager) Tick(ctx context.Context, dt float64) (TickReport, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()

	m.mu.Lock()
	if err := m.checkAdvanceLocked(dt, 1); err != nil {
		m.mu.Unlock()
		return TickReport{}, err
	}
	m.now += dt
	// Roll the budget window. The tick landing exactly on the boundary still
	// belongs to the closing window (it covers the virtual time up to it).
	for m.pol.Budget > 0 && m.now-m.windowStart > m.pol.BudgetWindow {
		m.windowStart += m.pol.BudgetWindow
		if m.budgetUsed > m.maxWindowProbes {
			m.maxWindowProbes = m.budgetUsed
		}
		m.budgetUsed = 0
	}
	now := m.now
	devs := m.snapshot()
	m.mu.Unlock()

	rep := TickReport{Now: now}

	// Budget admission is by reservation: each admitted operation holds its
	// reserve until the phase's actual probes are accounted, so one phase
	// can never admit more work than the window's remaining headroom.
	reserved := 0
	admit := func(reserve int) bool {
		if m.pol.Budget <= 0 {
			return true
		}
		m.mu.Lock()
		ok := m.budgetUsed+reserved+reserve <= m.pol.Budget
		m.mu.Unlock()
		if ok {
			reserved += reserve
		}
		return ok
	}

	// Idle time passes on every pair instrument's clock, drifting its
	// lever arms and opening a fresh measurement epoch.
	for _, d := range devs {
		d.mu.Lock()
		for _, pc := range d.pairs {
			pc.adv(time.Duration(dt * float64(time.Second)))
		}
		d.mu.Unlock()
	}

	// Phase 1: spot-checks, admitted in (device ID, pair) order under the
	// budget.
	var due []unit
	for _, d := range devs {
		d.mu.Lock()
		for _, pc := range d.pairs {
			if pc.hasCal && now-pc.lastCheckT >= m.pol.CheckInterval {
				if admit(CheckReserve) {
					pc.phaseProbes = 0 // jobs that never run must account as zero
					pc.phaseSaved = 0
					pc.phaseHasEv = false
					pc.phaseModelDirty = false
					due = append(due, unit{d, pc})
				} else {
					rep.SkippedBudget++
				}
			}
		}
		d.mu.Unlock()
	}
	checkErr := m.pool.Map(ctx, len(due), func(jctx context.Context, i int) error {
		return m.checkPair(jctx, due[i].d, due[i].pc, now)
	})
	// Settle at the barrier in admission order, even when the phase was
	// interrupted: probes recorded in the scratch fields were really spent,
	// and history/journal writes happen here so their order never depends on
	// scheduling.
	var checkSaved int
	persistErr := m.settlePhase(due, &rep.Checked, &rep.CheckProbes, &checkSaved)
	rep.ProbesSaved += checkSaved
	m.account(rep.CheckProbes)
	m.accountSaved(checkSaved)
	reserved = 0 // check reservations became actuals above
	if checkErr != nil {
		return rep, checkErr
	}
	if persistErr != nil {
		return rep, persistErr
	}

	// Phase 2: re-extraction of stale pairs, highest priority first. A chain
	// device with one drifted pair enters with exactly that pair — the
	// partial recalibration path.
	type cand struct {
		u        unit
		priority float64
	}
	var cands []cand
	for _, d := range devs {
		d.mu.Lock()
		for _, pc := range d.pairs {
			if m.eligible(pc, now) {
				cands = append(cands, cand{unit{d, pc}, pc.score * d.weight})
			}
		}
		d.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].priority != cands[j].priority {
			return cands[i].priority > cands[j].priority
		}
		if cands[i].u.d.id != cands[j].u.d.id {
			return cands[i].u.d.id < cands[j].u.d.id
		}
		return cands[i].u.pc.idx < cands[j].u.pc.idx
	})
	var admitted []unit
	for _, c := range cands {
		if admit(RecalReserve) {
			c.u.d.mu.Lock()
			c.u.pc.phaseProbes = 0
			c.u.pc.phaseSaved = 0
			c.u.pc.phaseHasEv = false
			c.u.pc.phaseModelDirty = false
			c.u.d.mu.Unlock()
			admitted = append(admitted, c.u)
		} else {
			rep.SkippedBudget++
			c.u.d.mu.Lock()
			c.u.pc.budgetDeferred++
			c.u.d.mu.Unlock()
		}
	}
	recalErr := m.pool.Map(ctx, len(admitted), func(jctx context.Context, i int) error {
		return m.calibratePair(jctx, admitted[i].d, admitted[i].pc, now, false)
	})
	// Settle in (device ID, pair) order so fleet totals are scheduling-
	// independent, and even when interrupted — completed jobs' probes were
	// really spent.
	sort.Slice(admitted, func(i, j int) bool {
		if admitted[i].d.id != admitted[j].d.id {
			return admitted[i].d.id < admitted[j].d.id
		}
		return admitted[i].pc.idx < admitted[j].pc.idx
	})
	var recalSaved int
	persistErr = m.settlePhase(admitted, &rep.Recalibrated, &rep.RecalProbes, &recalSaved)
	rep.ProbesSaved += recalSaved
	m.account(rep.RecalProbes)
	m.accountSaved(recalSaved)
	m.notePartialRecals(admitted)

	m.mu.Lock()
	m.skippedBudget += rep.SkippedBudget
	if m.tel != nil {
		m.tel.skippedBudget.Add(int64(rep.SkippedBudget))
	}
	m.mu.Unlock()
	if recalErr != nil {
		return rep, recalErr
	}
	if persistErr != nil {
		return rep, persistErr
	}
	// Journal the advanced clock and window accounting so a restart resumes
	// the budget window (and tick cadence) where this tick left it.
	return rep, m.saveClock()
}

// settlePhase applies one phase's outcomes at its barrier, in the given
// (deterministic) unit order: report labels and probe totals, history
// pushes, fleet-wide counter bumps and journal writes. Each run of units of
// one device journals the device once, batched with all of the run's
// events, so its state is never durable ahead of an event that produced
// it. The first journal error is returned after every unit is settled —
// accounting must never be lost to a persistence fault.
func (m *Manager) settlePhase(units []unit, labels *[]string, probes, saved *int) error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < len(units); {
		d := units[i].d
		d.mu.Lock()
		var evs []Event
		var dirty []*pairCal
		for ; i < len(units) && units[i].d == d; i++ {
			pc := units[i].pc
			*labels = append(*labels, units[i].label())
			*probes += pc.phaseProbes
			*saved += pc.phaseSaved
			if pc.phaseHasEv {
				d.pushEvent(m.pol, pc.phaseEv)
				m.bumpEvent(pc.phaseEv)
				evs = append(evs, pc.phaseEv)
			}
			if pc.phaseModelDirty {
				dirty = append(dirty, pc)
			}
		}
		if len(evs) > 0 {
			keep(m.persistDevice(d, evs))
		}
		for _, pc := range dirty {
			keep(m.saveModel(d, pc))
		}
		d.mu.Unlock()
	}
	return firstErr
}

// saveModel journals a pair's surrogate twin under its own record — models
// are ~100 KB binary blobs, far too heavy to ride along in the per-event
// device snapshot. Callers hold the owning dev's mu.
func (m *Manager) saveModel(d *dev, pc *pairCal) error {
	st := m.journalStore()
	if st == nil || pc.model == nil {
		return nil
	}
	key := fmt.Sprintf("fleet/%s/%d", d.id, pc.idx)
	return st.Put(store.KindSurrogateModel, key, pc.model.Encode())
}

// notePartialRecals counts devices whose recalibrated pairs this tick were a
// strict subset of their pairs — the chain workload's probe saving.
func (m *Manager) notePartialRecals(admitted []unit) {
	perDev := make(map[*dev]int)
	for _, u := range admitted {
		perDev[u.d]++
	}
	partial := 0
	for d, n := range perDev {
		d.mu.Lock()
		if n < len(d.pairs) {
			partial++
		}
		d.mu.Unlock()
	}
	if partial > 0 {
		m.mu.Lock()
		m.partialRecals += partial
		if m.tel != nil {
			m.tel.partialRecals.Add(int64(partial))
		}
		m.mu.Unlock()
	}
}

// bumpEvent folds one settled event into the fleet-wide counters; the
// fields touched are m-level, guarded by m.mu inside the bump helpers.
func (m *Manager) bumpEvent(ev Event) {
	switch ev.Kind {
	case "check":
		if ev.Err != "" {
			m.bumpLost()
		} else {
			m.bumpCheck(ev.Staleness)
		}
	case "calibrate-failed":
		m.bumpFailed()
	case "calibrate":
		m.bumpCalibration(true, false)
	case "recalibrate":
		m.bumpCalibration(false, false)
	case "force":
		m.bumpCalibration(false, true)
	}
}

// accountSaved folds surrogate-served probes into the fleet total. Saved
// probes never touch the budget window: the budget bounds instrument time,
// and a twin-served probe costs none.
func (m *Manager) accountSaved(saved int) {
	if saved == 0 {
		return
	}
	m.mu.Lock()
	m.probesSaved += saved
	if m.tel != nil {
		m.tel.probesSaved.Add(int64(saved))
	}
	m.mu.Unlock()
}

// account charges actually-spent probes to the window and fleet totals.
func (m *Manager) account(probes int) {
	if probes == 0 {
		return
	}
	m.mu.Lock()
	m.budgetUsed += probes
	if m.budgetUsed > m.maxWindowProbes {
		m.maxWindowProbes = m.budgetUsed
	}
	m.probesSpent += probes
	if m.tel != nil {
		m.tel.probes.Add(int64(probes))
	}
	m.mu.Unlock()
}

// eligible decides whether a pair is a recalibration candidate; callers
// hold the owning dev's mu. Hysteresis: a calibrated pair must (a) have
// crossed the staleness threshold, (b) on evidence measured after its last
// calibration — never on a stale score — and (c) be out of its cooldown.
func (m *Manager) eligible(pc *pairCal, now float64) bool {
	if !pc.hasCal {
		return pc.attempts == 0 || now-pc.lastAttemptT >= m.pol.Cooldown
	}
	if pc.score < m.pol.StaleThreshold {
		return false
	}
	if pc.scoreT <= pc.lastCalT {
		return false
	}
	return now-pc.lastAttemptT >= m.pol.Cooldown
}

// probeSrc returns the instrument a scheduling job should probe through.
// With SurrogateThreshold unset that is the pair instrument itself; with it
// set, the pair's twin (lazily created) fronts the instrument as a learning
// Hybrid, and the returned handle exposes the phase's hit count. Callers
// hold d.mu.
func (m *Manager) probeSrc(pc *pairCal) (device.Metered, *surrogate.Hybrid) {
	if m.pol.SurrogateThreshold <= 0 {
		return pc.inst, nil
	}
	if pc.model == nil {
		pc.model = surrogate.New(pc.win)
	}
	h := &surrogate.Hybrid{
		Model:     pc.model,
		Inner:     pc.inst,
		Threshold: m.pol.SurrogateThreshold,
		Learn:     true,
	}
	if m.tel != nil {
		h.Metrics = m.tel.sur
	}
	return h, h
}

// resetModel discards a pair's twin after its world model proved wrong (lines
// lost, extraction failed) and marks it for journalling; callers hold d.mu.
func (pc *pairCal) resetModel() {
	if pc.model != nil {
		pc.model.Reset()
		pc.phaseModelDirty = true
	}
}

// settleSaved folds the phase's surrogate hits into the pair counters;
// callers hold d.mu.
func (pc *pairCal) settleSaved(hyb *surrogate.Hybrid) {
	pc.phaseSaved = 0
	if hyb != nil {
		pc.phaseSaved = hyb.Hits()
		pc.probesSaved += pc.phaseSaved
	}
}

// checkPair runs one freshness spot-check. The outcome is stashed in the
// pair's phase scratch; history, counters and journal writes happen at the
// phase barrier so their order is deterministic.
func (m *Manager) checkPair(ctx context.Context, d *dev, pc *pairCal, now float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	before := pc.inst.Stats().UniqueProbes
	src, hyb := m.probeSrc(pc)
	vr, err := virtualgate.Verify(ctx, src, pc.win, pc.matrix, pc.kneeV1, pc.kneeV2, m.checkConfig())
	probes := pc.inst.Stats().UniqueProbes - before
	pc.phaseProbes = probes
	pc.probes += probes
	pc.settleSaved(hyb)
	pc.checks++
	pc.lastCheckT = now
	if err != nil {
		if !errors.Is(err, virtualgate.ErrVerify) {
			return err // cancellation or instrument fault: abort the tick
		}
		// Lines lost: the matrix (or the knee it is anchored to) is so stale
		// the short scans miss the transitions entirely. The twin learned the
		// same stale world — discard it with the matrix.
		pc.resetModel()
		pc.lost = true
		pc.score = LostStaleness
		pc.scoreT = now
		pc.lostEvents++
		pc.phaseEv = Event{T: now, Kind: "check", Pair: pc.idx, Staleness: pc.score, Probes: probes, ProbesSaved: pc.phaseSaved, Err: err.Error()}
		pc.phaseHasEv = true
		return nil
	}
	pc.lost = false
	pc.score = m.scoreResult(pc, vr)
	pc.scoreT = now
	if pc.score > pc.maxFinite {
		pc.maxFinite = pc.score
	}
	pc.phaseEv = Event{T: now, Kind: "check", Pair: pc.idx, Staleness: pc.score, Probes: probes, ProbesSaved: pc.phaseSaved, OK: pc.score < m.pol.StaleThreshold}
	pc.phaseHasEv = true
	return nil
}

// scoreResult turns a verify outcome into a staleness score; callers hold
// the owning dev's mu. Two signals, both normalised so 1.0 sits at the drift
// tolerance: the spread of each line across the along-positions (matrix
// error — a wrong matrix makes the line appear to move under virtual
// stepping) and the shift of each re-located position against the baseline
// recorded at calibration (the line itself moved: lever-arm drift or a
// charge jump).
func (m *Manager) scoreResult(pc *pairCal, vr *virtualgate.VerifyResult) float64 {
	tol1 := m.pol.MaxShiftFrac * (pc.win.V1Max - pc.win.V1Min)
	tol2 := m.pol.MaxShiftFrac * (pc.win.V2Max - pc.win.V2Min)
	score := math.Max(vr.SteepShift/tol1, vr.ShallowShift/tol2)
	for i, p := range vr.SteepPositions {
		if i < len(pc.baseSteep) {
			score = math.Max(score, math.Abs(p-pc.baseSteep[i])/tol1)
		}
	}
	for i, p := range vr.ShallowPositions {
		if i < len(pc.baseShallow) {
			score = math.Max(score, math.Abs(p-pc.baseShallow[i])/tol2)
		}
	}
	return score
}

// Delta-recalibration scan geometry: three crossings per line, scanned with
// a wider window than a spot-check (the line has, by definition of being
// recalibrated, moved by about the tolerance — the scan must still straddle
// it) but far narrower than a re-raster.
var deltaAlongFracs = []float64{0.25, 0.5, 0.75}

const (
	deltaScanFrac = 0.08
	// deltaWideScanFrac is the one-shot live rescan width used when the
	// twin-first delta scan cannot find a line: the line has escaped the
	// twin's guard band, so the stale model would mask the crossing — the
	// retry probes the instrument directly over a doubled straddle.
	deltaWideScanFrac = 0.16
	// deltaBaseScanFrac is the post-delta baseline verify's scan half-width:
	// the lines were located moments ago, so the reference positions only
	// need a short straddle, not the full spot-check width.
	deltaBaseScanFrac = 0.04
)

// medianFloat returns the median of vs; vs is scratch and may be reordered.
func medianFloat(vs []float64) float64 {
	sort.Float64s(vs)
	return vs[len(vs)/2]
}

// rungDelta names the fleet's own first recalibration rung, deltaRecal.
const rungDelta method.Name = "delta"

// deltaRecal is the twin-enabled cheap recalibration: instead of a full
// re-raster, re-locate both transition lines with a few extraction-grade
// cross scans around their last known positions, refit the slopes from the
// measured crossings, and return the new matrix and knee. The twin then gets
// the measured shape installed directly (SetLine), recentring its guard band
// on the fresh lines. When the lines cannot be re-located or the refit
// geometry is degenerate it returns a deterministic miss, and the ladder
// escalates; a context error aborts the tick. Callers hold d.mu.
func (m *Manager) deltaRecal(ctx context.Context, pc *pairCal, src device.Metered) (*method.Fit, error) {
	cfg := virtualgate.VerifyConfig{
		AlongFracs:   deltaAlongFracs,
		ScanFrac:     deltaScanFrac,
		MaxShiftFrac: m.pol.MaxShiftFrac,
	}
	vr, err := virtualgate.Verify(ctx, src, pc.win, pc.matrix, pc.kneeV1, pc.kneeV2, cfg)
	if errors.Is(err, virtualgate.ErrVerify) {
		// A line escaped the twin's guard band, so the stale model masks
		// its crossing: rescan once, wider and fully live.
		cfg.ScanFrac = deltaWideScanFrac
		vr, err = virtualgate.Verify(ctx, pc.inst, pc.win, pc.matrix, pc.kneeV1, pc.kneeV2, cfg)
	}
	if err != nil {
		return nil, err
	}
	inv, err := pc.matrix.Inverse()
	if err != nil {
		return nil, err
	}
	// Map the measured virtual-coordinate crossings back to real voltages:
	// three points on each (possibly moved) line.
	eu1, eu2 := pc.matrix.Apply(pc.win.V1Min, pc.win.V2Min)
	ku1, ku2 := pc.matrix.Apply(pc.kneeV1, pc.kneeV2)
	steepPts := make([]fitting.Vec2, 0, len(cfg.AlongFracs))
	shallowPts := make([]fitting.Vec2, 0, len(cfg.AlongFracs))
	for i, f := range cfg.AlongFracs {
		x, y := inv.Apply(vr.SteepPositions[i], eu2+f*(ku2-eu2))
		steepPts = append(steepPts, fitting.Vec2{X: x, Y: y})
		x, y = inv.Apply(eu1+f*(ku1-eu1), vr.ShallowPositions[i])
		shallowPts = append(shallowPts, fitting.Vec2{X: x, Y: y})
	}
	// Refit each line through its crossings — the steep one as x(y), like
	// the extraction pipeline, to stay conditioned near vertical.
	swapped := make([]fitting.Vec2, len(steepPts))
	for i, p := range steepPts {
		swapped[i] = fitting.Vec2{X: p.Y, Y: p.X}
	}
	// Intersecting x = c1 + d1·y (steep) with y = c2 + d2·x (shallow) gives
	// the new knee; both inverse slopes must sit in (-1, 0) for FromSlopes.
	solve := func(c1, d1, c2, d2 float64) (kneeX, kneeY float64, ok bool) {
		if !(d1 > -1 && d1 < 0) || !(d2 > -1 && d2 < 0) {
			return 0, 0, false
		}
		kneeX = (c1 + d1*c2) / (1 - d1*d2)
		kneeY = c2 + d2*kneeX
		ok = kneeX >= pc.win.V1Min && kneeX <= pc.win.V1Max &&
			kneeY >= pc.win.V2Min && kneeY <= pc.win.V2Max
		return kneeX, kneeY, ok
	}
	c1, d1, errSteep := fitting.TheilSen(swapped)
	c2, d2, errShallow := fitting.TheilSen(shallowPts)
	var kneeX, kneeY float64
	ok := false
	if errSteep == nil && errShallow == nil {
		kneeX, kneeY, ok = solve(c1, d1, c2, d2)
	}
	if !ok {
		// Three crossings are too few to always bound the slope under probe
		// noise. Wandering drift is dominated by offset, so re-anchor the
		// previous slopes through the measured crossings (translation-only
		// delta) before giving up and re-rastering.
		d1, d2 = 1/pc.steep, pc.shallow
		var rSteep, rShallow []float64
		for i := range steepPts {
			rSteep = append(rSteep, steepPts[i].X-d1*steepPts[i].Y)
			rShallow = append(rShallow, shallowPts[i].Y-d2*shallowPts[i].X)
		}
		c1, c2 = medianFloat(rSteep), medianFloat(rShallow)
		if kneeX, kneeY, ok = solve(c1, d1, c2, d2); !ok {
			return nil, errors.New("fleet: delta refit finds no knee inside the window")
		}
	}
	steep, shallow := 1/d1, d2
	mat, err := virtualgate.FromSlopes(steep, shallow)
	if err != nil {
		return nil, err
	}
	if pc.model != nil {
		line := fitting.Polyline2{
			A: fitting.Vec2{X: c1 + d1*pc.win.V2Min, Y: pc.win.V2Min},
			K: fitting.Vec2{X: kneeX, Y: kneeY},
			B: fitting.Vec2{X: pc.win.V1Min, Y: c2 + d2*pc.win.V1Min},
		}
		// The shape was just measured live, so its uncertainty is the scan
		// pitch, not a fit residual — keep the guard band tight.
		rms := pc.win.StepV1() / 2
		if err := pc.model.SetLine(surrogate.Fit{Model: line, RMS: rms}); err != nil {
			pc.model.Reset()
		}
		pc.phaseModelDirty = true
	}
	return &method.Fit{Matrix: mat, SteepSlope: steep, ShallowSlope: shallow, TripleV1: kneeX, TripleV2: kneeY}, nil
}

// calibratePair re-tunes one pair — for a chain device, only this pair's
// window is re-measured; the neighbours keep their matrices. A scheduled
// recalibration climbs a ladder: with a warm fitted twin the delta path (a
// few cross scans) first, then under the InfoGain policy the active probe
// scheduler, and the full extraction raster last. Cold starts and operator
// forces run only the raster. Either way a baseline spot-check records the
// freshness reference.
func (m *Manager) calibratePair(ctx context.Context, d *dev, pc *pairCal, now float64, force bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	first := !pc.hasCal
	before := pc.inst.Stats().UniqueProbes
	probeInst, hyb := m.probeSrc(pc)
	// A scheduled recalibration of a still-tracked pair with a warm fitted
	// twin only needs to re-measure where the lines went.
	var rungs []method.Name
	if !force && !first && !pc.lost && hyb != nil && pc.model.Fitted() {
		rungs = append(rungs, rungDelta)
	}
	// Under the InfoGain policy a scheduled recalibration re-locates the
	// lines with the active probe scheduler, warm-started on the pair's last
	// known geometry.
	opts := &method.Options{}
	if m.pol.InfoGain && !force && !first {
		rungs = append(rungs, method.InfoGain)
		if m.tel != nil {
			opts.InfoGain.Metrics = m.tel.ig
		}
		if !pc.lost {
			opts.InfoGain.Prior = &infogain.Prior{
				SteepSlope: pc.steep, ShallowSlope: pc.shallow,
				TripleV1: pc.kneeV1, TripleV2: pc.kneeV2,
			}
		}
	}
	rungs = append(rungs, method.Fast)
	out, err := method.Ladder(ctx, pc.inst, rungs, func(ctx context.Context, rung method.Name) (*method.Fit, error) {
		if rung == rungDelta {
			return m.deltaRecal(ctx, pc, probeInst)
		}
		return method.Run(ctx, rung, probeInst, pc.win, opts)
	})
	if err != nil {
		return err
	}
	// settle stashes the event with everything the calibration cost.
	settle := func(ev Event) {
		probes := pc.inst.Stats().UniqueProbes - before
		pc.phaseProbes = probes
		pc.probes += probes
		pc.settleSaved(hyb)
		ev.Probes = probes
		ev.ProbesSaved = pc.phaseSaved
		pc.phaseEv = ev
		pc.phaseHasEv = true
	}
	pc.attempts++
	pc.lastAttemptT = now
	if out.Fit == nil {
		// The extraction anchors could not find the lines in what the twin
		// and the instrument together reported — the twin is not
		// trustworthy.
		pc.resetModel()
		pc.failedCals++
		settle(Event{T: now, Kind: "calibrate-failed", Pair: pc.idx, Staleness: pc.score, Err: out.Err.Error()})
		return nil
	}
	delta := out.Winner == rungDelta
	guided := out.Winner == method.InfoGain
	pc.matrix = out.Fit.Matrix
	pc.steep, pc.shallow = out.Fit.SteepSlope, out.Fit.ShallowSlope
	pc.kneeV1, pc.kneeV2 = out.Fit.TripleV1, out.Fit.TripleV2
	pc.hasCal = true
	pc.lost = false
	pc.calibrations++
	pc.lastCalT = now

	// Record the freshness baseline: the line positions a healthy pair
	// reproduces, measured with the same scan geometry the spot-checks use.
	kind := "recalibrate"
	if first {
		kind = "calibrate"
	}
	if force {
		kind = "force"
		pc.forced++
	}
	// Refit the twin on the freshly-learned raster samples before the
	// baseline verify: the guard band recentres on the new transition lines,
	// so near-line verify probes stay live while plateau probes can be
	// served. The delta path already installed the measured shape.
	if !delta && pc.model != nil {
		if ferr := pc.model.Fit(); ferr != nil {
			pc.model.Reset()
		}
		pc.phaseModelDirty = true
	}
	ev := Event{T: now, Kind: kind, Pair: pc.idx, Delta: delta, InfoGain: guided, A12: pc.matrix.A12(), A21: pc.matrix.A21()}
	baseCfg := m.checkConfig()
	if delta {
		baseCfg.ScanFrac = deltaBaseScanFrac
	}
	vr, verr := virtualgate.Verify(ctx, probeInst, pc.win, pc.matrix, pc.kneeV1, pc.kneeV2, baseCfg)
	if verr != nil {
		if !errors.Is(verr, virtualgate.ErrVerify) {
			return verr
		}
		// Extraction succeeded but the check scans cannot see the lines —
		// keep the sentinel so the pair stays first in line.
		pc.resetModel()
		pc.baseSteep, pc.baseShallow = nil, nil
		pc.lost = true
		pc.score = LostStaleness
		pc.lostEvents++
		ev.Err = verr.Error()
	} else {
		pc.baseSteep = append([]float64(nil), vr.SteepPositions...)
		pc.baseShallow = append([]float64(nil), vr.ShallowPositions...)
		// Against the just-recorded baseline the shift terms are zero, so
		// this is exactly the spread (matrix-error) score.
		pc.score = m.scoreResult(pc, vr)
		if pc.score > pc.maxFinite {
			pc.maxFinite = pc.score
		}
		ev.OK = pc.score < m.pol.StaleThreshold
	}
	pc.scoreT = now
	// The baseline verify just measured the lines: the next periodic
	// spot-check is due a full interval from now, not from the last one.
	pc.lastCheckT = now
	ev.Staleness = pc.score
	settle(ev)
	return nil
}

// pushEvent appends to the bounded history; callers hold d.mu.
func (d *dev) pushEvent(pol Policy, ev Event) {
	d.history = append(d.history, ev)
	if over := len(d.history) - pol.HistoryCap; over > 0 {
		d.history = append(d.history[:0], d.history[over:]...)
	}
}

func (m *Manager) bumpCheck(score float64) {
	m.mu.Lock()
	m.checks++
	if score > m.worstStaleness && score < LostStaleness {
		m.worstStaleness = score
		if m.tel != nil {
			m.tel.worstStaleness.Set(score)
		}
	}
	if m.tel != nil {
		m.tel.checks.Inc()
	}
	m.mu.Unlock()
}

func (m *Manager) bumpLost() {
	m.mu.Lock()
	m.checks++
	m.lostEvents++
	if m.tel != nil {
		m.tel.checks.Inc()
		m.tel.lost.Inc()
	}
	m.mu.Unlock()
}

func (m *Manager) bumpFailed() {
	m.mu.Lock()
	m.failedCals++
	if m.tel != nil {
		m.tel.failed.Inc()
	}
	m.mu.Unlock()
}

func (m *Manager) bumpCalibration(first, force bool) {
	m.mu.Lock()
	switch {
	case force:
		m.forced++
	case first:
		m.calibrations++
	default:
		m.recalibrations++
	}
	if m.tel != nil {
		switch {
		case force:
			m.tel.forced.Inc()
		case first:
			m.tel.calibrations.Inc()
		default:
			m.tel.recalibrations.Inc()
		}
	}
	m.mu.Unlock()
}

// forcePairs re-extracts the given pairs of one device immediately on the
// worker pool, bypassing staleness, hysteresis and budget admission (the
// probes still count against the window). It returns the last settled
// event. Forces serialise with Tick, so the tick phases' per-pair scratch
// accounting is never interleaved.
func (m *Manager) forcePairs(ctx context.Context, id string, pairIdx []int) (Event, error) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	m.mu.Lock()
	d, ok := m.devices[id]
	now := m.now
	m.mu.Unlock()
	if !ok {
		return Event{}, fmt.Errorf("%w %q", ErrUnknownDevice, id)
	}
	var units []unit
	d.mu.Lock()
	for _, i := range pairIdx {
		if i < 0 || i >= len(d.pairs) {
			d.mu.Unlock()
			return Event{}, fmt.Errorf("fleet: device %q has no pair %d", id, i)
		}
		pc := d.pairs[i]
		pc.phaseProbes = 0
		pc.phaseSaved = 0
		pc.phaseHasEv = false
		pc.phaseModelDirty = false
		units = append(units, unit{d, pc})
	}
	d.mu.Unlock()
	err := m.pool.Map(ctx, len(units), func(jctx context.Context, i int) error {
		return m.calibratePair(jctx, units[i].d, units[i].pc, now, true)
	})
	var labels []string
	probes, saved := 0, 0
	persistErr := m.settlePhase(units, &labels, &probes, &saved)
	m.account(probes)
	m.accountSaved(saved)
	if err != nil {
		return Event{}, err
	}
	if persistErr != nil {
		return Event{}, persistErr
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.history) == 0 {
		return Event{}, errors.New("fleet: no event recorded")
	}
	if err := m.saveClock(); err != nil {
		return Event{}, err
	}
	return d.history[len(d.history)-1], nil
}

// ForceRecalibrate runs a full re-extraction of every pair of one device
// immediately, bypassing staleness, hysteresis and budget admission (the
// probes still count against the window). It returns the last resulting
// history event.
func (m *Manager) ForceRecalibrate(ctx context.Context, id string) (Event, error) {
	m.mu.Lock()
	d, ok := m.devices[id]
	m.mu.Unlock()
	if !ok {
		return Event{}, fmt.Errorf("%w %q", ErrUnknownDevice, id)
	}
	d.mu.Lock()
	idx := make([]int, len(d.pairs))
	for i := range idx {
		idx[i] = i
	}
	d.mu.Unlock()
	return m.forcePairs(ctx, id, idx)
}

// ForceRecalibratePair re-extracts a single pair of a chain device — the
// operator's partial-recalibration handle.
func (m *Manager) ForceRecalibratePair(ctx context.Context, id string, pair int) (Event, error) {
	return m.forcePairs(ctx, id, []int{pair})
}

// Summary is the outcome of a simulated run (cmd/vgxfleet's deliverable):
// the final Status plus run parameters. It is deterministic for fixed device
// seeds — byte-identical JSON across runs and worker counts.
type Summary struct {
	VirtualS float64 `json:"virtualS"`
	TickS    float64 `json:"tickS"`
	Ticks    int     `json:"ticks"`
	Status
}

// Summarize packages the fleet's current Status as the summary of a run of
// the given tick count and length.
func (m *Manager) Summarize(ticks int, dt float64) *Summary {
	return &Summary{
		VirtualS: float64(ticks) * dt,
		TickS:    dt,
		Ticks:    ticks,
		Status:   m.Status(),
	}
}

// NumTicks returns how many dt-second ticks cover total virtual seconds.
func NumTicks(total, dt float64) int {
	return int(math.Ceil(total / dt))
}

// Run advances the fleet through total virtual seconds in dt-second ticks
// and returns the summary. Devices registered before Run are initially
// calibrated by the first ticks (budget permitting).
func (m *Manager) Run(ctx context.Context, total, dt float64) (*Summary, error) {
	if total <= 0 || dt <= 0 {
		return nil, errors.New("fleet: run and tick durations must be positive")
	}
	ticks := NumTicks(total, dt)
	for i := 0; i < ticks; i++ {
		if _, err := m.Tick(ctx, dt); err != nil {
			return nil, err
		}
	}
	return m.Summarize(ticks, dt), nil
}
