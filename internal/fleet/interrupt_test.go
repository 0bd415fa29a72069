package fleet

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// cancelAfterEntry reads as live to the first Err call — Tick's entry
// check — and as cancelled ever after, so the tick moves its clock and
// then finds its phases interrupted.
type cancelAfterEntry struct {
	context.Context // already cancelled
	checked         atomic.Bool
}

func (c *cancelAfterEntry) Err() error {
	if c.checked.CompareAndSwap(false, true) {
		return nil
	}
	return c.Context.Err()
}

// TestInterruptedTickJournalsClock: a tick whose phases are cancelled
// after its clock moved still journals the clock, so a manager restored
// from the journal resumes at the live manager's Now(), and no pair's
// check or attempt stamp lies ahead of it. The error says where the tick
// stopped and still matches the cancellation.
func TestInterruptedTickJournalsClock(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{CheckInterval: 300}
	m1, _ := attachedManager(t, dir, pol)
	cfgs := append([]DeviceConfig{wanderingSpec(t, 2), quietSpec(t, 0)}, DefaultChainFleet(1, 4, 3)...)
	for _, cfg := range cfgs {
		if _, err := m1.Register(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runTicks(t, m1, 4, 300) // calibrated; every tick now spot-checks
	before := m1.Now()
	done, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m1.Tick(&cancelAfterEntry{Context: done}, 300)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "spot-check phase") {
		t.Fatalf("interrupted tick: err %v, want one naming the spot-check phase and matching context.Canceled", err)
	}
	if m1.Now() != before+300 {
		t.Fatalf("live clock %v, want %v: the tick did not get past its entry check", m1.Now(), before+300)
	}

	m2, st2 := attachedManager(t, dir, pol)
	defer st2.Close()
	if got, want := m2.Now(), m1.Now(); got != want {
		t.Fatalf("restored clock %v, live clock %v", got, want)
	}
	for id, d := range m2.devices {
		d.mu.Lock()
		for _, pc := range d.pairs {
			if pc.lastCheckT > m2.Now() || pc.lastAttemptT > m2.Now() {
				t.Errorf("device %s pair %d: lastCheckT %v, lastAttemptT %v after the restored clock %v",
					id, pc.idx, pc.lastCheckT, pc.lastAttemptT, m2.Now())
			}
		}
		d.mu.Unlock()
	}
}
