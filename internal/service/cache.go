package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/fastvg/fastvg/internal/telemetry"
)

// CacheStats is a snapshot of the result cache's accounting. Counter
// values are read from the telemetry registry's vgx_service_cache_*
// families — /v1/stats and GET /metrics report the same numbers by
// construction.
type CacheStats struct {
	Capacity  int   `json:"capacity"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`      // served from a completed entry
	Misses    int64 `json:"misses"`    // executed the extraction
	Coalesced int64 `json:"coalesced"` // attached to an identical in-flight job
	Evictions int64 `json:"evictions"`
}

// HitRate returns the fraction of lookups served without running an
// extraction (hits and coalesced joins over all lookups).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// flight is one in-progress computation other callers can attach to.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// resultCache is an LRU of completed job results keyed by canonical request
// hash, with single-flight coalescing: concurrent lookups of the same key
// while the first is still extracting wait for that one execution instead of
// starting their own. Errors are not cached — a failed extraction re-runs on
// the next request.
//
// Accounting lives in telemetry counters (registered by serviceMetrics);
// coalesced is gauge-typed because abandoned joins un-count themselves.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight

	hits      *telemetry.Counter
	misses    *telemetry.Counter
	coalesced *telemetry.Counter
	evictions *telemetry.Counter
}

// cacheEntry is one completed result. An entry never changes once
// inserted: replacing a key's result inserts a new entry.
type cacheEntry struct {
	key string
	res *Result
	// hit is res encoded as a hit serves it, built by hitJSON on first
	// use; it lives and dies with the entry.
	hit atomic.Pointer[[]byte]
}

// hitJSON returns the JSON of the entry's result with Cached set, as a
// hit serves it, encoding it on first use. Nil if the result does not
// encode.
func (e *cacheEntry) hitJSON() []byte {
	if b := e.hit.Load(); b != nil {
		return *b
	}
	c := *e.res
	c.Cached = true
	b, err := json.Marshal(&c)
	if err != nil {
		return nil
	}
	e.hit.Store(&b)
	return b
}

func newResultCache(capacity int, m *serviceMetrics) *resultCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &resultCache{
		capacity:  capacity,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		inflight:  make(map[string]*flight),
		hits:      m.cacheHits,
		misses:    m.cacheMisses,
		coalesced: m.cacheCoalesced,
		evictions: m.cacheEvictions,
	}
}

// Do returns the result for key, running fn at most once across all
// concurrent callers. The bool reports whether the result was served without
// invoking fn (cache hit or coalesced join); hit is the entry that served a
// cache hit, nil otherwise. The returned Result is shared and must be
// treated as immutable.
//
// A caller's own ctx only abandons its wait. If a flight fails because its
// owner was cancelled, the work itself is still wanted by everyone else
// attached to it, so a waiter re-drives it under its own context instead of
// inheriting the stranger's cancellation.
func (c *resultCache) Do(ctx context.Context, key string, fn func() (*Result, error)) (res *Result, hit *cacheEntry, served bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			e := el.Value.(*cacheEntry)
			c.mu.Unlock()
			c.hits.Inc()
			return e.res, e, true, nil
		}
		if fl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			c.coalesced.Inc()
			// Joins that end up not being served (abandoned wait, owner
			// cancelled and re-driven, flight error) un-count themselves so
			// one logical lookup never contributes twice to the hit rate.
			uncount := func() { c.coalesced.Add(-1) }
			select {
			case <-fl.done:
				if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
					uncount()
					continue // owner cancelled, not the work: re-drive
				}
				if fl.err != nil {
					uncount()
					return nil, nil, false, fl.err
				}
				return fl.res, nil, true, nil
			case <-ctx.Done():
				uncount()
				return nil, nil, false, context.Cause(ctx)
			}
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[key] = fl
		c.mu.Unlock()
		c.misses.Inc()

		fl.res, fl.err = fn()

		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			c.insert(key, fl.res)
		}
		c.mu.Unlock()
		close(fl.done)
		return fl.res, nil, false, fl.err
	}
}

// seed inserts a restored result without touching the hit/miss accounting —
// the journal warm start. Seed in journal write order (oldest first) so the
// LRU order after a restart matches the order before it.
func (c *resultCache) seed(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, res)
}

// Get returns the cached result for key without computing anything.
func (c *resultCache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Len returns the resident entry count (the cache-entries gauge).
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// insert adds a completed result, evicting from the LRU tail. Caller holds mu.
func (c *resultCache) insert(key string, res *Result) {
	if el, ok := c.items[key]; ok {
		el.Value = &cacheEntry{key: key, res: res}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

// Stats returns a snapshot of the cache accounting.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	entries := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Capacity:  c.capacity,
		Entries:   entries,
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Coalesced: c.coalesced.Value(),
		Evictions: c.evictions.Value(),
	}
}
