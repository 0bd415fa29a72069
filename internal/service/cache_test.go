package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/telemetry"
)

func res(kind Kind) *Result { return &Result{Kind: kind} }

// TestCacheHitMiss checks basic hit/miss accounting.
func TestCacheHitMiss(t *testing.T) {
	c := newResultCache(8, newServiceMetrics(telemetry.NewRegistry()))
	ctx := context.Background()
	calls := 0
	fn := func() (*Result, error) { calls++; return res(KindFast), nil }

	if _, _, served, err := c.Do(ctx, "a", fn); err != nil || served {
		t.Fatalf("first Do = served %v, err %v; want miss", served, err)
	}
	if _, _, served, err := c.Do(ctx, "a", fn); err != nil || !served {
		t.Fatalf("second Do = served %v, err %v; want hit", served, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

// TestCacheLRUEviction checks the least-recently-used entry is evicted.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, newServiceMetrics(telemetry.NewRegistry()))
	ctx := context.Background()
	fill := func(key string) {
		if _, _, _, err := c.Do(ctx, key, func() (*Result, error) { return res(KindFast), nil }); err != nil {
			t.Fatal(err)
		}
	}
	fill("a")
	fill("b")
	fill("a") // refresh a: b is now least recent
	fill("c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("%s should still be cached", key)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
}

// TestCacheCoalescing checks concurrent identical lookups run the function
// once and everyone else attaches to that flight.
func TestCacheCoalescing(t *testing.T) {
	c := newResultCache(8, newServiceMetrics(telemetry.NewRegistry()))
	ctx := context.Background()
	const waiters = 16

	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (*Result, error) {
		calls.Add(1)
		close(started)
		<-release
		return res(KindFast), nil
	}

	var wg sync.WaitGroup
	first := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(first)
		if _, _, served, err := c.Do(ctx, "k", fn); err != nil || served {
			t.Errorf("leader Do = served %v, err %v", served, err)
		}
	}()
	<-first
	<-started // the leader holds the flight; everyone below must coalesce
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, served, err := c.Do(ctx, "k", func() (*Result, error) {
				t.Error("coalesced caller ran the function")
				return nil, nil
			})
			if err != nil || !served || r == nil {
				t.Errorf("coalesced Do = (%v, %v, %v)", r, served, err)
			}
		}()
	}
	// Wait until all waiters are parked on the flight, then release.
	for c.Stats().Coalesced < waiters {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if st := c.Stats(); st.Coalesced != waiters || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d coalesced / 1 miss", st, waiters)
	}
}

// TestCacheWaiterRedrivesCancelledOwner: when the caller that started a
// flight is cancelled, a waiter whose own context is live does not inherit
// that cancellation — it runs the work again under its own context, and its
// abandoned join is un-counted.
func TestCacheWaiterRedrivesCancelledOwner(t *testing.T) {
	c := newResultCache(8, newServiceMetrics(telemetry.NewRegistry()))
	ownerCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	ownerErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.Do(ownerCtx, "k", func() (*Result, error) {
			close(started)
			<-release
			return nil, ownerCtx.Err()
		})
		ownerErr <- err
	}()
	<-started

	want := res(KindRays)
	type outcome struct {
		res    *Result
		served bool
		err    error
	}
	waited := make(chan outcome, 1)
	go func() {
		r, _, served, err := c.Do(context.Background(), "k", func() (*Result, error) { return want, nil })
		waited <- outcome{r, served, err}
	}()
	for c.Stats().Coalesced < 1 { // the waiter is parked on the owner's flight
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	close(release)

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	if o := <-waited; o.err != nil || o.served || o.res != want {
		t.Fatalf("waiter Do = (%v, served %v, %v), want its own fn's result", o.res, o.served, o.err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want 2 misses / 0 coalesced", st)
	}
}

// TestCacheErrorNotCached checks failed computations are retried, not
// served from cache.
func TestCacheErrorNotCached(t *testing.T) {
	c := newResultCache(8, newServiceMetrics(telemetry.NewRegistry()))
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	if _, _, _, err := c.Do(ctx, "k", func() (*Result, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if r, _, _, err := c.Do(ctx, "k", func() (*Result, error) { calls++; return res(KindFast), nil }); err != nil || r == nil {
		t.Fatalf("retry = (%v, %v), want success", r, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (error not cached)", calls)
	}
}

// TestCacheConcurrentDistinctKeys hammers the cache from many goroutines to
// give the race detector surface area.
func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := newResultCache(32, newServiceMetrics(telemetry.NewRegistry()))
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				key := fmt.Sprintf("k%d", i%16)
				if _, _, _, err := c.Do(ctx, key, func() (*Result, error) { return res(KindFast), nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
