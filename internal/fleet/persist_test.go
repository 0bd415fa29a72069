package fleet

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/store"
)

// persistSnapshot is the reference form of a device's journal record:
// dev.record must encode exactly its json.Marshal. Callers hold d.mu.
func (d *dev) persistSnapshot() persistedDevice {
	return persistedDevice{ID: d.id, Weight: d.weight, Spec: d.spec, Chain: d.chain, Pairs: d.pairSnapshots()}
}

func attachedManager(t *testing.T, dir string, pol Policy) (*Manager, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(sched.New(2), pol)
	if err := m.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	return m, st
}

// TestRestartRestoresFleetState runs a journaled fleet for a few virtual
// hours, abandons the manager without any clean shutdown (the journal is
// written append-by-append, so this is the kill scenario), and restores a
// fresh manager from the same directory: every scheduling-relevant field —
// staleness score, cooldown timestamps, hysteresis evidence, budget window,
// counters, history — must come back exactly.
func TestRestartRestoresFleetState(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{CheckInterval: 1800, Budget: 50000}
	m1, _ := attachedManager(t, dir, pol)
	for _, cfg := range []DeviceConfig{wanderingSpec(t, 2), quietSpec(t, 0)} {
		if _, err := m1.Register(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runTicks(t, m1, 36, 300) // three virtual hours
	before := m1.Status()
	hist1, ok := m1.History("wander")
	if !ok || len(hist1) == 0 {
		t.Fatal("no wander history before restart")
	}
	// No Close, no flush: the manager is simply abandoned.

	m2, st2 := attachedManager(t, dir, pol)
	defer st2.Close()
	after := m2.Status()

	if after.Now != before.Now {
		t.Fatalf("clock: %v != %v", after.Now, before.Now)
	}
	if after.BudgetUsed != before.BudgetUsed || after.ProbesSpent != before.ProbesSpent {
		t.Fatalf("budget: used %d/%d, spent %d/%d", after.BudgetUsed, before.BudgetUsed, after.ProbesSpent, before.ProbesSpent)
	}
	if after.Checks != before.Checks || after.Calibrations != before.Calibrations ||
		after.Recalibrations != before.Recalibrations || after.LostEvents != before.LostEvents {
		t.Fatalf("counters diverged: %+v vs %+v", after, before)
	}
	if len(after.Devices) != len(before.Devices) {
		t.Fatalf("%d devices restored, want %d", len(after.Devices), len(before.Devices))
	}
	for i, dv := range after.Devices {
		want := before.Devices[i]
		if dv.ID != want.ID || dv.State != want.State || dv.Staleness != want.Staleness ||
			dv.LastCalT != want.LastCalT || dv.LastCheckT != want.LastCheckT ||
			dv.Calibrations != want.Calibrations || dv.Probes != want.Probes ||
			dv.A12 != want.A12 || dv.A21 != want.A21 {
			t.Fatalf("device %s restored as %+v, want %+v", want.ID, dv, want)
		}
	}
	hist2, ok := m2.History("wander")
	if !ok || len(hist2) != len(hist1) {
		t.Fatalf("history: %d events restored, want %d", len(hist2), len(hist1))
	}
	for i := range hist1 {
		if hist2[i] != hist1[i] {
			t.Fatalf("history[%d] = %+v, want %+v", i, hist2[i], hist1[i])
		}
	}
	jh, ok := m2.JournalHistory("wander")
	if !ok || len(jh) < len(hist1) {
		t.Fatalf("journal history: %d events, want >= %d", len(jh), len(hist1))
	}

	// The restored fleet must keep running: cooldowns and check intervals
	// continue from the restored clock, not from zero.
	runTicks(t, m2, 6, 300)
	if got := m2.Now(); got != before.Now+6*300 {
		t.Fatalf("clock resumed at %v, want %v", got, before.Now+6*300)
	}
}

// TestRestartPreservesHysteresis pins the restart-specific failure the
// store exists to prevent: a freshly restored healthy device must NOT be
// re-extracted on the first tick after restart (it is calibrated, fresh and
// inside its cooldown), and an uncalibrated fleet restored mid-bringup must
// still calibrate.
func TestRestartPreservesHysteresis(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{CheckInterval: 1800}
	m1, _ := attachedManager(t, dir, pol)
	if _, err := m1.Register(quietSpec(t, 0)); err != nil {
		t.Fatal(err)
	}
	runTicks(t, m1, 12, 300) // one hour: initial calibration + a check or two
	calsBefore := m1.Status().Calibrations
	if calsBefore != 1 {
		t.Fatalf("want exactly the initial calibration, got %d", calsBefore)
	}

	m2, st2 := attachedManager(t, dir, pol)
	defer st2.Close()
	rep, err := m2.Tick(context.Background(), 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recalibrated) != 0 {
		t.Fatalf("restored healthy device re-extracted immediately: %v", rep.Recalibrated)
	}
	st := m2.Status()
	if st.Calibrations != 1 || st.Recalibrations != 0 {
		t.Fatalf("calibrations after restart tick = %d/%d, want 1/0", st.Calibrations, st.Recalibrations)
	}
}

// TestAttachStoreCollision rejects restoring over an already-registered ID.
func TestAttachStoreCollision(t *testing.T) {
	dir := t.TempDir()
	m1, _ := attachedManager(t, dir, Policy{})
	if _, err := m1.Register(quietSpec(t, 0)); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := New(sched.New(1), Policy{})
	if _, err := m2.Register(quietSpec(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m2.AttachStore(st2); err == nil {
		t.Fatal("want collision error")
	}
}

// TestAutoIDsResumeAfterRestart: auto-assigned device IDs must not collide
// with restored ones.
func TestAutoIDsResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	m1, _ := attachedManager(t, dir, Policy{})
	spec := quietSpec(t, 0)
	spec.ID = ""
	if _, err := m1.Register(spec); err != nil {
		t.Fatal(err)
	}

	m2, st2 := attachedManager(t, dir, Policy{})
	defer st2.Close()
	spec2 := quietSpec(t, 1)
	spec2.ID = ""
	dv, err := m2.Register(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if dv.ID != "dev-002" {
		t.Fatalf("auto ID after restart = %q, want dev-002", dv.ID)
	}
}

// TestLegacyDeviceRecordMigration: journals written before per-pair
// staleness carry the calibration state flat on the device record.
// AttachStore must decode them as the single implicit pair of a double-dot
// device instead of refusing to start.
func TestLegacyDeviceRecordMigration(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ProfileSpec(ProfileQuiet, 3)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	legacy := []byte(`{"id":"old-a","weight":2,"spec":` + string(specJSON) + `,` +
		`"hasCal":true,"matrix":[[1,0.1],[0.2,1]],"kneeV1":30,"kneeV2":31,` +
		`"steep":-8,"shallow":-0.12,"score":0.4,"scoreT":900,"lastCalT":300,` +
		`"lastAttemptT":300,"lastCheckT":900,"attempts":1,"maxFinite":0.4,` +
		`"checks":2,"calibrations":1,"probes":1200,` +
		`"history":[{"t":300,"kind":"calibrate","staleness":0.1,"probes":1200,"ok":true}]}`)
	if err := st.Put(store.KindFleetDevice, "old-a", legacy); err != nil {
		t.Fatal(err)
	}

	m := New(sched.New(1), Policy{})
	if err := m.AttachStore(st); err != nil {
		t.Fatalf("legacy journal refused: %v", err)
	}
	defer st.Close()
	dv, ok := m.Device("old-a")
	if !ok {
		t.Fatal("legacy device not restored")
	}
	if len(dv.Pairs) != 1 || !dv.Calibrated {
		t.Fatalf("legacy device shape: %+v", dv)
	}
	p := dv.Pairs[0]
	if p.A12 != 0.1 || p.A21 != 0.2 || p.Staleness != 0.4 || p.Calibrations != 1 || p.Probes != 1200 {
		t.Errorf("legacy calibration state lost: %+v", p)
	}
	if dv.State != StateHealthy {
		t.Errorf("legacy device state %q, want healthy", dv.State)
	}
	evs, _ := m.History("old-a")
	if len(evs) != 1 || evs[0].Kind != "calibrate" {
		t.Errorf("legacy history lost: %+v", evs)
	}
	// The restored manager keeps running (and re-persists in the new form).
	if _, err := m.Tick(context.Background(), 300); err != nil {
		t.Fatal(err)
	}
}

// TestParentFormatRecordRestoresRingFromField: device records written
// before the audit log became the ring's durable copy carry the ring in a
// "history" field beside "pairs". AttachStore restores the ring from that
// field, even where the audit log lags it (a kill between the record and
// its event), trimmed to HistoryCap; once the device journals again its
// record drops the field and the next restore reads the audit log.
func TestParentFormatRecordRestoresRingFromField(t *testing.T) {
	src := New(sched.New(1), Policy{CheckInterval: 1800})
	if _, err := src.Register(wanderingSpec(t, 2)); err != nil {
		t.Fatal(err)
	}
	runTicks(t, src, 13, 300) // initial calibration, then a spot-check
	d := src.devices["wander"]
	if len(d.history) < 2 {
		t.Fatalf("want at least 2 events to persist, got %d", len(d.history))
	}
	old := d.persistSnapshot()
	old.History = append([]Event(nil), d.history...)
	rec, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	clock := src.clockSnapshotLocked()

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.KindFleetClock, "", clock); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.KindFleetDevice, "wander", rec); err != nil {
		t.Fatal(err)
	}
	// The audit log misses the newest event, as after a kill between the
	// parent format's two appends.
	for _, ev := range old.History[:len(old.History)-1] {
		data, _ := json.Marshal(ev)
		if err := st.Put(store.KindFleetEvent, "wander", data); err != nil {
			t.Fatal(err)
		}
	}

	capped := len(old.History) - 1
	m := New(sched.New(1), Policy{CheckInterval: 1800, HistoryCap: capped})
	if err := m.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	ring, _ := m.History("wander")
	if !slices.Equal(ring, old.History[1:]) {
		t.Fatalf("ring = %+v, want the field's newest %d events %+v", ring, capped, old.History[1:])
	}
	if dv, _ := m.Device("wander"); dv.Staleness != old.History[len(old.History)-1].Staleness {
		t.Fatalf("restored staleness %v, want the newest event's %v", dv.Staleness, old.History[len(old.History)-1].Staleness)
	}

	// Journaling again rewrites the record without the ring.
	if _, err := m.ForceRecalibrate(context.Background(), "wander"); err != nil {
		t.Fatal(err)
	}
	data, _ := st.Get(store.KindFleetDevice, "wander")
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["history"]; ok {
		t.Fatal("re-journaled device record still carries its ring")
	}
	m2 := New(sched.New(1), Policy{CheckInterval: 1800, HistoryCap: capped})
	if err := m2.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	jh, _ := m2.JournalHistory("wander")
	ring2, _ := m2.History("wander")
	if !slices.Equal(ring2, jh[len(jh)-capped:]) {
		t.Fatalf("ring after migration = %+v, want the audit log's newest %d of %+v", ring2, capped, jh)
	}
}

// TestDeviceRecordsMatchMarshal: the spec-once record encoding is byte for
// byte json.Marshal of the device's persistedDevice. It checks every
// device's journaled record and a fresh encoding at registration, after
// every tick of a run that calibrates, spot-checks and recalibrates double
// dots and chains, and across a restart, where restored devices build their
// record prefix from the journal.
func TestDeviceRecordsMatchMarshal(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{CheckInterval: 1800}
	m1, st1 := attachedManager(t, dir, pol)
	cfgs, err := DefaultFleet(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, DefaultChainFleet(2, 4, 11)...)
	cfgs = append(cfgs, DeviceConfig{Spec: cfgs[0].Spec}) // auto ID, default weight
	for _, cfg := range cfgs {
		if _, err := m1.Register(cfg); err != nil {
			t.Fatal(err)
		}
	}
	check := func(m *Manager, st *store.Store, when string) {
		t.Helper()
		for _, d := range m.Status().Devices {
			dv := m.devices[d.ID]
			dv.mu.Lock()
			want, err := json.Marshal(dv.persistSnapshot())
			if err != nil {
				t.Fatal(err)
			}
			rec, err := dv.record()
			dv.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			journaled, ok := st.Get(store.KindFleetDevice, d.ID)
			if !ok || string(journaled) != string(want) || string(rec) != string(want) {
				t.Fatalf("%s, device %s:\njournaled %s\nencoded   %s\nmarshal   %s", when, d.ID, journaled, rec, want)
			}
		}
	}
	check(m1, st1, "registration")
	ctx := context.Background()
	for i := 0; i < 96; i++ { // eight virtual hours
		if _, err := m1.Tick(ctx, 300); err != nil {
			t.Fatal(err)
		}
		check(m1, st1, "tick")
	}
	if m1.Status().Recalibrations == 0 {
		t.Fatal("no recalibration journaled; the run checks too little")
	}

	m2, st2 := attachedManager(t, dir, pol)
	defer st2.Close()
	check(m2, st2, "restore")
	for i := 0; i < 24; i++ {
		if _, err := m2.Tick(ctx, 300); err != nil {
			t.Fatal(err)
		}
		check(m2, st2, "tick after restore")
	}
}
