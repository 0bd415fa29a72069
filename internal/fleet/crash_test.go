package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/store"
)

// TestCrashStepRestoresConsistentRing kills the journal at every byte of an
// event-bearing tick's appends: the log is truncated at each offset and a
// fresh manager restored from it. At every offset, each device's history
// ring must be the tail of its journaled event log, and each pair's newest
// ring event must carry the staleness its restored state reports — a pair
// with no event yet must restore uncalibrated, at LostStaleness. The tick
// is the fleet's first, which calibrates a double dot and all three pairs
// of a chain in one phase, so the chain journals three events at once.
func TestCrashStepRestoresConsistentRing(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{CheckInterval: 1800}
	m, st := attachedManager(t, dir, pol)
	for _, cfg := range []DeviceConfig{wanderingSpec(t, 2), chainCfg("arr")} {
		if _, err := m.Register(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var from int64
	var rep TickReport
	for tick := 0; len(rep.Checked)+len(rep.Recalibrated) == 0; tick++ {
		if tick == 12 {
			t.Fatal("no tick checked or recalibrated anything")
		}
		from = st.Stats().LogBytes
		var err error
		if rep, err = m.Tick(context.Background(), 300); err != nil {
			t.Fatal(err)
		}
	}
	if len(rep.Recalibrated) != 4 {
		t.Fatalf("tick recalibrated %v, want the double dot and all three chain pairs", rep.Recalibrated)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}

	pool := sched.New(1)
	cdir := t.TempDir()
	bad, first := 0, ""
	for cut := int(from); cut <= len(full); cut++ {
		if err := os.WriteFile(filepath.Join(cdir, "journal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cst, err := store.Open(cdir, store.Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		rm := New(pool, pol)
		if err := rm.AttachStore(cst); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if msg := ringMismatch(rm); msg != "" {
			if bad == 0 {
				first = fmt.Sprintf("cut %d: %s", cut, msg)
			}
			bad++
		}
		if err := cst.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d offsets restore an inconsistent ring; first %s", bad, len(full)-int(from)+1, first)
	}
}

// ringMismatch describes the first way m's restored rings disagree with
// its journaled event log or its restored pair state, or returns "".
func ringMismatch(m *Manager) string {
	for _, dv := range m.Status().Devices {
		ring, _ := m.History(dv.ID)
		tail, _ := m.JournalHistory(dv.ID)
		if over := len(tail) - m.pol.HistoryCap; over > 0 {
			tail = tail[over:]
		}
		if !slices.Equal(ring, tail) {
			return fmt.Sprintf("%s: ring of %d events is not the tail of the %d journaled", dv.ID, len(ring), len(tail))
		}
		for _, ps := range dv.Pairs {
			i := len(ring) - 1
			for i >= 0 && ring[i].Pair != ps.Pair {
				i--
			}
			switch {
			case i < 0 && (ps.Calibrated || ps.Staleness != LostStaleness):
				return fmt.Sprintf("%s/%d: restored calibrated at staleness %v with no event", dv.ID, ps.Pair, ps.Staleness)
			case i >= 0 && ring[i].Staleness != ps.Staleness:
				return fmt.Sprintf("%s/%d: newest event staleness %v, restored %v", dv.ID, ps.Pair, ring[i].Staleness, ps.Staleness)
			}
		}
	}
	return ""
}
