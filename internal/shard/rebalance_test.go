package shard

import (
	"context"
	"testing"

	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/xrand"
)

// TestRebalanceShipsOnlyMovedRanges is the acceptance property for shard
// join: growing 2 → 3 shards ships exactly the journal ranges whose keys
// changed owner under the new ring — every shipped key's new owner is the
// ring's answer, every unshipped key stayed where both rings agree — and
// the grown cluster then serves every prior request from cache and owns
// every fleet device on its new home shard, journal history included.
func TestRebalanceShipsOnlyMovedRanges(t *testing.T) {
	dir := t.TempDir()
	base := service.Config{Workers: 2, ScrapeInterval: -1}
	c, rep, err := Open(Config{Shards: 2, DataDir: dir, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("fresh dir rebalanced: %+v", rep)
	}
	ctx := context.Background()

	reqs := simRequests(10)
	want := make([]string, len(reqs))
	hashes := make([]string, len(reqs))
	for i, req := range reqs {
		res, err := c.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = normalize(t, res)
		if hashes[i], err = req.Hash(); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := fleet.ProfileSpec(fleet.ProfileStandard, xrand.DeriveSeed(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	deviceIDs := []string{"dev-a", "dev-b", "dev-c", "dev-d", "dev-e", "dev-f"}
	for _, id := range deviceIDs {
		svc, err := c.shard(c.ring.Owner(id))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Fleet().Register(fleet.DeviceConfig{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	// A few ticks journal per-device calibration events.
	c.each(func(_ int, svc *service.Service) {
		for i := 0; i < 3; i++ {
			if _, err := svc.Fleet().Tick(ctx, 300); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}

	c3, rep, err := Open(Config{Shards: 3, DataDir: dir, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close(ctx)
	if rep == nil || rep.From != 2 || rep.To != 3 {
		t.Fatalf("expected a 2->3 rebalance report, got %+v", rep)
	}
	if len(rep.Moved) == 0 {
		t.Fatal("join moved nothing")
	}

	// Every shipped key moved because the ring says so; nothing shipped
	// between surviving shards' unchanged arcs.
	r2, r3 := NewRing(2), NewRing(3)
	routeOf := func(kind store.Kind, key string) (string, bool) {
		switch kind {
		case store.KindFleetDevice, store.KindFleetEvent:
			return key, true
		case store.KindSurrogateModel:
			// Not exercised by this workload's kinds.
			return "", false
		default:
			return "", false
		}
	}
	for _, mv := range rep.Moved {
		if mv.From == mv.To {
			t.Fatalf("no-op move shipped: %+v", mv)
		}
		if rk, ok := routeOf(mv.Kind, mv.Key); ok {
			if r2.Owner(rk) != mv.From {
				t.Fatalf("moved key %+v did not live on its old ring owner %d", mv, r2.Owner(rk))
			}
			if r3.Owner(rk) != mv.To {
				t.Fatalf("moved key %+v not shipped to its new ring owner %d", mv, r3.Owner(rk))
			}
		}
	}
	// Unmoved fleet devices: both rings agree, and the device is still
	// served from its original shard's journal.
	movedSet := make(map[string]bool)
	for _, mv := range rep.Moved {
		if mv.Kind == store.KindFleetDevice {
			movedSet[mv.Key] = true
		}
	}
	for _, id := range deviceIDs {
		if !movedSet[id] && r2.Owner(id) != r3.Owner(id) {
			t.Fatalf("device %q changed ring owner %d->%d but was not shipped",
				id, r2.Owner(id), r3.Owner(id))
		}
		if movedSet[id] && r2.Owner(id) == r3.Owner(id) {
			t.Fatalf("device %q shipped although its owner did not change", id)
		}
	}

	// The grown cluster serves every prior request from cache, identical
	// bytes, and owns every device where the new ring points — with its
	// journaled history intact.
	for i, req := range reqs {
		res, err := c3.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("request %d re-extracted after rebalance", i)
		}
		if normalize(t, res) != want[i] {
			t.Fatalf("request %d changed across rebalance", i)
		}
	}
	for _, id := range deviceIDs {
		owner := r3.Owner(id)
		svc, err := c3.shard(owner)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := svc.Fleet().Device(id); !ok {
			t.Fatalf("device %q missing from new owner shard %d", id, owner)
		}
		evs, ok := svc.Fleet().JournalHistory(id)
		if !ok || len(evs) == 0 {
			t.Fatalf("device %q has no journaled history on shard %d after rebalance", id, owner)
		}
	}

	// Idempotence: reopening at the same count rebalances nothing.
	if err := c3.Close(ctx); err != nil {
		t.Fatal(err)
	}
	c3b, rep, err := Open(Config{Shards: 3, DataDir: dir, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer c3b.Close(ctx)
	if rep != nil {
		t.Fatalf("same-count reopen rebalanced: %+v", rep)
	}
}

// TestRebalanceShrink: leaving shards ship everything they own back onto
// the survivors; nothing moves between survivors.
func TestRebalanceShrink(t *testing.T) {
	dir := t.TempDir()
	base := service.Config{Workers: 2, ScrapeInterval: -1}
	c, _, err := Open(Config{Shards: 3, DataDir: dir, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqs := simRequests(9)
	want := make([]string, len(reqs))
	for i, req := range reqs {
		res, err := c.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = normalize(t, res)
	}
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}

	c2, rep, err := Open(Config{Shards: 2, DataDir: dir, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close(ctx)
	if rep == nil {
		t.Fatal("shrink produced no report")
	}
	for _, mv := range rep.Moved {
		if mv.To >= 2 {
			t.Fatalf("shrink shipped %+v onto a removed shard", mv)
		}
	}
	for i, req := range reqs {
		res, err := c2.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("request %d re-extracted after shrink", i)
		}
		if normalize(t, res) != want[i] {
			t.Fatalf("request %d changed across shrink", i)
		}
	}
}
