package fleet

// Durable fleet state. The manager persists through internal/store: one
// KindFleetDevice record per device (its per-pair calibration state,
// superseded on every event), one KindFleetClock record (virtual clock,
// budget window and fleet-wide counters), and an append-only KindFleetEvent
// audit record per calibration-history event. AttachStore restores all of
// it on restart, so every pair's staleness score, cooldown and hysteresis
// evidence survives a daemon bounce instead of forcing every device — or
// every pair of a chain whose neighbours were fresh — through full
// re-extraction.
//
// Each settled phase journals a device's new state and the events that
// produced it as one store batch, so a kill at any byte restores both or
// neither. The device record does not carry the history ring: the audit
// log is its durable copy, and restore rebuilds each ring from the newest
// HistoryCap audit records under the device's ID. Records written before
// that (which carry a "history" field) restore their ring from the field.
// Register journals a new device together with the clock, in one batch.
//
// What restore reproduces is the manager's decision state, not the noise
// realisation: a restored pair is rebuilt from its spec with the virtual
// clock advanced to the persisted fleet time, so its time-driven processes
// resume at the restored epoch: drift at its phase, charge jumps at their
// seeded arrivals, and telegraph fluctuators (the 1/f bath, RTN) from their
// stationary law, redrawn by the first sample across the gap. White noise,
// driven by call count rather than time, restarts its RNG stream. Every
// scheduling decision — which pair is stale, which is cooling down, what
// the budget window has spent — is restored exactly.

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/virtualgate"
)

// persistedPair is the journal form of one pair's calibration state.
type persistedPair struct {
	Pair int `json:"pair"`

	HasCal         bool             `json:"hasCal"`
	Matrix         virtualgate.Mat2 `json:"matrix"`
	KneeV1         float64          `json:"kneeV1"`
	KneeV2         float64          `json:"kneeV2"`
	Steep          float64          `json:"steep"`
	Shallow        float64          `json:"shallow"`
	BaseSteep      []float64        `json:"baseSteep,omitempty"`
	BaseShallow    []float64        `json:"baseShallow,omitempty"`
	Score          float64          `json:"score"`
	ScoreT         float64          `json:"scoreT"`
	Lost           bool             `json:"lost"`
	LastCalT       float64          `json:"lastCalT"`
	LastAttemptT   float64          `json:"lastAttemptT"`
	LastCheckT     float64          `json:"lastCheckT"`
	Attempts       int              `json:"attempts"`
	MaxFinite      float64          `json:"maxFinite"`
	Checks         int              `json:"checks"`
	Calibrations   int              `json:"calibrations"`
	Forced         int              `json:"forced"`
	FailedCals     int              `json:"failedCals"`
	LostEvents     int              `json:"lostEvents"`
	Probes         int              `json:"probes"`
	ProbesSaved    int              `json:"probesSaved,omitempty"`
	BudgetDeferred int              `json:"budgetDeferred"`
}

// persistedDevice is the journal form of one device's calibration state.
type persistedDevice struct {
	ID     string               `json:"id"`
	Weight float64              `json:"weight"`
	Spec   device.DoubleDotSpec `json:"spec"`
	Chain  *device.ChainSpec    `json:"chain,omitempty"`

	Pairs []persistedPair `json:"pairs"`
	// History is read, never written: records from before the audit log
	// became the ring's durable copy carry the ring here, and restore
	// prefers it over the audit log for them.
	History []Event `json:"history,omitempty"`
}

// persistedClock is the journal form of the manager's fleet-wide state.
type persistedClock struct {
	Now             float64 `json:"now"`
	WindowStart     float64 `json:"windowStart"`
	BudgetUsed      int     `json:"budgetUsed"`
	NextID          int     `json:"nextID"`
	Checks          int     `json:"checks"`
	Calibrations    int     `json:"calibrations"`
	Recalibrations  int     `json:"recalibrations"`
	PartialRecals   int     `json:"partialRecals"`
	Forced          int     `json:"forced"`
	FailedCals      int     `json:"failedCals"`
	LostEvents      int     `json:"lostEvents"`
	ProbesSpent     int     `json:"probesSpent"`
	ProbesSaved     int     `json:"probesSaved,omitempty"`
	MaxWindowProbes int     `json:"maxWindowProbes"`
	SkippedBudget   int     `json:"skippedBudget"`
	WorstStaleness  float64 `json:"worstStaleness"`
}

// persistSnapshot renders the pair's journal record; callers hold the
// owning dev's mu.
func (pc *pairCal) persistSnapshot() persistedPair {
	return persistedPair{
		Pair:   pc.idx,
		HasCal: pc.hasCal, Matrix: pc.matrix,
		KneeV1: pc.kneeV1, KneeV2: pc.kneeV2, Steep: pc.steep, Shallow: pc.shallow,
		BaseSteep:   append([]float64(nil), pc.baseSteep...),
		BaseShallow: append([]float64(nil), pc.baseShallow...),
		Score:       pc.score, ScoreT: pc.scoreT, Lost: pc.lost,
		LastCalT: pc.lastCalT, LastAttemptT: pc.lastAttemptT, LastCheckT: pc.lastCheckT,
		Attempts: pc.attempts, MaxFinite: pc.maxFinite,
		Checks: pc.checks, Calibrations: pc.calibrations, Forced: pc.forced,
		FailedCals: pc.failedCals, LostEvents: pc.lostEvents, Probes: pc.probes,
		ProbesSaved:    pc.probesSaved,
		BudgetDeferred: pc.budgetDeferred,
	}
}

// restore writes the persisted fields back onto a freshly built pair.
func (p persistedPair) restore(pc *pairCal) {
	pc.hasCal = p.HasCal
	pc.matrix = p.Matrix
	pc.kneeV1, pc.kneeV2 = p.KneeV1, p.KneeV2
	pc.steep, pc.shallow = p.Steep, p.Shallow
	pc.baseSteep, pc.baseShallow = p.BaseSteep, p.BaseShallow
	pc.score, pc.scoreT, pc.lost = p.Score, p.ScoreT, p.Lost
	pc.lastCalT, pc.lastAttemptT, pc.lastCheckT = p.LastCalT, p.LastAttemptT, p.LastCheckT
	pc.attempts = p.Attempts
	pc.maxFinite = p.MaxFinite
	pc.checks, pc.calibrations, pc.forced = p.Checks, p.Calibrations, p.Forced
	pc.failedCals, pc.lostEvents, pc.probes = p.FailedCals, p.LostEvents, p.Probes
	pc.probesSaved = p.ProbesSaved
	pc.budgetDeferred = p.BudgetDeferred
}

// pairSnapshots renders the journal form of every pair; callers hold d.mu.
func (d *dev) pairSnapshots() []persistedPair {
	var out []persistedPair
	for _, pc := range d.pairs {
		out = append(out, pc.persistSnapshot())
	}
	return out
}

// record encodes the device's journal record, byte for byte the
// json.Marshal of its persistedDevice (with no history). ID, weight, spec
// and chain never change after registration, so their encoding — most of
// the record — is made once per device; each call encodes only the pairs.
// Callers hold d.mu.
func (d *dev) record() ([]byte, error) {
	if d.head == nil {
		head, err := json.Marshal(persistedDevice{ID: d.id, Weight: d.weight, Spec: d.spec, Chain: d.chain})
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		// The nil pairs encode last, as "pairs":null}; keep through "pairs":.
		d.head = head[:len(head)-len("null}")]
	}
	pairs, err := json.Marshal(d.pairSnapshots())
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	data := make([]byte, 0, len(d.head)+len(pairs)+1)
	data = append(data, d.head...)
	data = append(data, pairs...)
	return append(data, '}'), nil
}

// restore builds a dev from its journal record, with every pair's
// instrument clock advanced to the fleet's restored virtual time. The
// history ring is the record's own only for records that carry one.
func (p persistedDevice) restore(now float64) (*dev, error) {
	cfg := DeviceConfig{ID: p.ID, Weight: p.Weight, Spec: p.Spec, Chain: p.Chain}
	pairs, err := buildPairs(&cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: restoring %q: %w", p.ID, err)
	}
	if len(p.Pairs) != len(pairs) {
		return nil, fmt.Errorf("fleet: restoring %q: %d persisted pairs for a %d-pair device", p.ID, len(p.Pairs), len(pairs))
	}
	d := &dev{
		id: p.ID, weight: p.Weight, spec: p.Spec, chain: cfg.Chain,
		pairs:   pairs,
		history: p.History,
	}
	for i, pp := range p.Pairs {
		pp.restore(d.pairs[i])
		d.pairs[i].inst.Advance(time.Duration(now * float64(time.Second)))
	}
	return d, nil
}

// AttachStore restores the manager's state from st — the virtual clock,
// budget window, fleet-wide counters, and every persisted device with its
// per-pair staleness scores and cooldown timestamps, and its history ring
// rebuilt from the audit log — and then keeps st as the journal: every
// subsequent calibration event is persisted as it happens. Call before the
// first Tick; restored devices must not collide with ones already
// registered.
func (m *Manager) AttachStore(st *store.Store) error {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()

	if data, ok := st.Get(store.KindFleetClock, ""); ok {
		var pc persistedClock
		if err := json.Unmarshal(data, &pc); err != nil {
			return fmt.Errorf("fleet: clock record: %w", err)
		}
		m.now = pc.Now
		m.windowStart = pc.WindowStart
		m.budgetUsed = pc.BudgetUsed
		m.nextID = pc.NextID
		m.checks = pc.Checks
		m.calibrations = pc.Calibrations
		m.recalibrations = pc.Recalibrations
		m.partialRecals = pc.PartialRecals
		m.forced = pc.Forced
		m.failedCals = pc.FailedCals
		m.lostEvents = pc.LostEvents
		m.probesSpent = pc.ProbesSpent
		m.probesSaved = pc.ProbesSaved
		m.maxWindowProbes = pc.MaxWindowProbes
		m.skippedBudget = pc.SkippedBudget
		m.worstStaleness = pc.WorstStaleness
	}
	ringless := make(map[string]*dev) // restored devices whose record has no ring
	for _, rec := range st.Records(store.KindFleetDevice) {
		var pd persistedDevice
		if err := json.Unmarshal(rec.Data, &pd); err != nil {
			return fmt.Errorf("fleet: device record %q: %w", rec.Key, err)
		}
		if len(pd.Pairs) == 0 && pd.Chain == nil {
			// A pre-chain flat record: its calibration state is the single
			// implicit pair of a double-dot device, flat on the record
			// (migrated on the next save). Its ring decoded into History.
			var old persistedPair
			if err := json.Unmarshal(rec.Data, &old); err != nil {
				return fmt.Errorf("fleet: legacy device record %q: %w", rec.Key, err)
			}
			old.Pair = 0
			pd.Pairs = []persistedPair{old}
		}
		if _, dup := m.devices[pd.ID]; dup {
			return fmt.Errorf("fleet: restored device %q collides with a registered one", pd.ID)
		}
		d, err := pd.restore(m.now)
		if err != nil {
			return err
		}
		if pd.History == nil {
			ringless[pd.ID] = d
		} else if over := len(d.history) - m.pol.HistoryCap; over > 0 {
			// The record held the ring under an older cap; re-apply this one.
			d.history = append([]Event(nil), d.history[over:]...)
		}
		m.devices[pd.ID] = d
		m.order = append(m.order, pd.ID)
	}
	m.restoreRings(st, ringless)
	sort.Strings(m.order)
	m.restoreModels(st)
	m.journal = st
	return nil
}

// restoreRings rebuilds the history ring of each device in devs from the
// audit log: the newest HistoryCap events journaled under its ID, oldest
// first — the tail of what JournalHistory serves. It walks the log newest
// first and decodes only the events the rings keep. Callers hold m.mu.
func (m *Manager) restoreRings(st *store.Store, devs map[string]*dev) {
	open := len(devs)
	if open == 0 {
		return
	}
	recs := st.Records(store.KindFleetEvent)
	for i := len(recs) - 1; i >= 0 && open > 0; i-- {
		d, ok := devs[recs[i].Key]
		if !ok || len(d.history) >= m.pol.HistoryCap {
			continue
		}
		var ev Event
		if err := json.Unmarshal(recs[i].Data, &ev); err != nil {
			continue // JournalHistory skips it too
		}
		if d.history = append(d.history, ev); len(d.history) == m.pol.HistoryCap {
			open--
		}
	}
	for _, d := range devs {
		slices.Reverse(d.history)
	}
}

// restoreModels reattaches persisted surrogate twins ("fleet/<id>/<pair>"
// KindSurrogateModel records) to their restored pairs. A missing, foreign
// (the extraction service's "sim/..." and "chain/..." keys share the kind)
// or undecodable record just leaves the pair twinless — it relearns from its
// next probes. Callers hold m.mu.
func (m *Manager) restoreModels(st *store.Store) {
	for _, rec := range st.Records(store.KindSurrogateModel) {
		rest, isFleet := strings.CutPrefix(rec.Key, "fleet/")
		if !isFleet {
			continue
		}
		slash := strings.LastIndexByte(rest, '/')
		if slash < 0 {
			continue
		}
		pair, err := strconv.Atoi(rest[slash+1:])
		if err != nil {
			continue
		}
		d, ok := m.devices[rest[:slash]]
		if !ok || pair < 0 || pair >= len(d.pairs) {
			continue
		}
		model, err := surrogate.Decode(rec.Data)
		if err != nil || model.Win() != d.pairs[pair].win {
			continue
		}
		d.pairs[pair].model = model
	}
}

// journalStore returns the attached journal (nil when not persisting).
func (m *Manager) journalStore() *store.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal
}

// persistDevice journals a device's current state together with the
// events that produced it, as one store batch, so a crash restores both or
// neither; callers hold d.mu. A nil journal is a no-op; a journal error is
// an infrastructure fault that aborts the tick, like an instrument fault.
func (m *Manager) persistDevice(d *dev, evs []Event) error {
	st := m.journalStore()
	if st == nil {
		return nil
	}
	data, err := d.record()
	if err != nil {
		return err
	}
	recs := make([]store.Record, 1, 1+len(evs))
	recs[0] = store.Record{Kind: store.KindFleetDevice, Key: d.id, Data: data}
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		recs = append(recs, store.Record{Kind: store.KindFleetEvent, Key: d.id, Data: data})
	}
	return st.PutBatch(recs...)
}

// clockSnapshotLocked marshals the fleet-wide clock and counters; callers
// hold m.mu. Every field is a finite number, so the encoding cannot fail.
func (m *Manager) clockSnapshotLocked() []byte {
	pc := persistedClock{
		Now: m.now, WindowStart: m.windowStart, BudgetUsed: m.budgetUsed,
		NextID: m.nextID,
		Checks: m.checks, Calibrations: m.calibrations, Recalibrations: m.recalibrations,
		PartialRecals: m.partialRecals,
		Forced:        m.forced, FailedCals: m.failedCals, LostEvents: m.lostEvents,
		ProbesSpent: m.probesSpent, ProbesSaved: m.probesSaved,
		MaxWindowProbes: m.maxWindowProbes,
		SkippedBudget:   m.skippedBudget, WorstStaleness: m.worstStaleness,
	}
	data, _ := json.Marshal(pc)
	return data
}

// saveClock persists the fleet-wide clock and counters.
func (m *Manager) saveClock() error {
	m.mu.Lock()
	st := m.journal
	data := m.clockSnapshotLocked()
	m.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Put(store.KindFleetClock, "", data)
}

// JournalHistory returns a device's persisted event log from the attached
// journal, oldest first — the full record behind the bounded in-memory ring
// History serves. With no journal attached it reports false.
func (m *Manager) JournalHistory(id string) ([]Event, bool) {
	st := m.journalStore()
	if st == nil {
		return nil, false
	}
	var out []Event
	for _, rec := range st.Records(store.KindFleetEvent) {
		if rec.Key != id {
			continue
		}
		var ev Event
		if err := json.Unmarshal(rec.Data, &ev); err != nil {
			continue
		}
		out = append(out, ev)
	}
	return out, true
}
