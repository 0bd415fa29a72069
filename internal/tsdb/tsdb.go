// Package tsdb is the in-process time-series store layered over the
// internal/telemetry registry: a scraper samples every registered
// series into fixed-size, delta-encoded ring buffers, and a small query
// evaluator (query.go) answers instant and range questions over the
// retained window — last/avg/min/max/sum, counter rates, histogram
// quantiles. It is what turns the registry's "what is the value now"
// into "how has it moved", with zero dependencies and bounded memory.
//
// Both sides are cheap enough to run on every fleet tick, which scrapes
// and evaluates the alert rules on the request path. A scrape is
// planned: the DB keeps the series of each registry sample for one
// registration generation, so a steady-state scrape reads the
// registry's values only and appends each straight into its ring — one
// pass, no allocation. A registration re-plans the next scrape from a
// full Snapshot. A query resolves a full key through the series map and
// a bare name through a name index kept in key order, then walks only
// the ring points inside its window: a rate or last costs the points
// back to the window start, a whole-ring window nothing extra. Only
// fn=range and Dump decode points.
//
// Design constraints, in order:
//
//  1. Bounded memory. Every series is a ring of Capacity points; a
//     point costs 12 bytes (a uint32 millisecond delta against the
//     previous point plus a float64 value). A fully-wired daemon's
//     ~500-sample registry at the default 512-point capacity retains
//     its recent history in ~3 MB, forever, no matter the uptime.
//  2. Caller-owned clock. Scrape takes the timestamp. A daemon's
//     background loop passes wall-derived seconds; the determinism
//     tests and fleet-tick hooks pass the virtual clock, so two
//     processes replaying the same tick schedule hold byte-identical
//     databases. The DB never reads time itself.
//  3. Deterministic reads. Series iterate in sorted-key order and
//     query results are emitted in that same order, so marshalled
//     query responses from identical databases are byte-identical —
//     the property the worker-count tests pin.
package tsdb

import (
	"math"
	"sort"
	"sync"

	"github.com/fastvg/fastvg/internal/telemetry"
)

// Options tunes a DB; the zero value is production-reasonable.
type Options struct {
	// Capacity is the number of points each series ring retains;
	// default 512. With a 10 s scrape cadence that is ~85 minutes of
	// history per series.
	Capacity int
}

// DB holds one ring series per registry sample. All methods are safe
// for concurrent use.
type DB struct {
	reg *telemetry.Registry
	cap int

	// scrapeMu serialises scrapes and guards the plan. It is held across
	// the registry read, which must stay outside mu: the daemon's own
	// tsdb gauges call Stats from inside that read.
	scrapeMu sync.Mutex
	plan     []*Series // series of each registry sample, for planGen
	planGen  uint64
	vals     []float64 // values buffer reused by every scrape

	mu      sync.Mutex
	series  map[string]*Series
	order   []string             // sorted keys, rebuilt on insert
	byName  map[string][]*Series // sample name -> series in key order
	dirty   bool                 // order and byName need rebuilding
	lastMS  int64                // timestamp of the newest scrape
	scrapes int64
	points  int // retained points across every ring
}

// New builds an empty DB scraping reg.
func New(reg *telemetry.Registry, opt Options) *DB {
	if opt.Capacity <= 0 {
		opt.Capacity = 512
	}
	return &DB{reg: reg, cap: opt.Capacity, series: make(map[string]*Series)}
}

// Series is one sample's ring of (timestamp, value) points. Timestamps
// are stored delta-encoded: an absolute int64 millisecond stamp for the
// oldest retained point, then one uint32 millisecond delta per
// successor — 12 bytes a point, bounded by construction.
type Series struct {
	Key    string // full sample key: name{sig}
	Name   string // sample name (family plus histogram suffix)
	Sig    string // label signature, "" when unlabelled
	Family string // registered family name
	Type   string // counter | gauge | histogram

	firstMS int64 // absolute timestamp of the oldest point
	lastMS  int64 // absolute timestamp of the newest point
	head    int   // ring index of the oldest point
	n       int
	dt      []uint32 // per-slot delta (ms) from the previous point; oldest slot's is unused
	val     []float64

	// A histogram bucket's label signature split once at creation:
	// the non-le labels and the parsed bound (splitLE).
	leRest string
	le     float64
	isLE   bool
}

func newSeries(p telemetry.SamplePoint, capacity int) *Series {
	s := &Series{Key: p.Key(), Name: p.Name, Sig: p.Sig, Family: p.Family, Type: p.Type,
		dt: make([]uint32, capacity), val: make([]float64, capacity)}
	if p.Name == p.Family+"_bucket" {
		s.leRest, s.le, s.isLE = splitLE(p.Sig)
	}
	return s
}

// append records one point and reports whether the ring grew (false
// once it is full and the point replaced the oldest). Timestamps must be
// non-decreasing; a stale or duplicate stamp is nudged one millisecond
// past the newest point so the delta encoding never needs a sign.
func (s *Series) append(ms int64, v float64) bool {
	if s.n == 0 {
		s.firstMS, s.lastMS = ms, ms
		s.dt[0], s.val[0] = 0, v
		s.n = 1
		return true
	}
	d := ms - s.lastMS
	if d <= 0 {
		d = 1
		ms = s.lastMS + 1
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32 // ~49 days between scrapes: clamp, keep monotonicity
		ms = s.lastMS + d
	}
	grew := s.n < len(s.dt)
	if grew {
		i := (s.head + s.n) % len(s.dt)
		s.dt[i], s.val[i] = uint32(d), v
		s.n++
	} else {
		// Overwrite the oldest slot with the newest point; the slot after
		// it becomes the oldest, and its delta folds into firstMS. In a
		// one-point ring that slot is the new point itself.
		next := (s.head + 1) % len(s.dt)
		if next == s.head {
			s.firstMS = ms
		} else {
			s.firstMS += int64(s.dt[next])
		}
		s.dt[s.head], s.val[s.head] = uint32(d), v
		s.head = next
	}
	s.lastMS = ms
	return grew
}

// Point is one decoded sample point. T is seconds on the scrape clock.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// points decodes the ring, oldest first, keeping only points with
// timestamp >= fromMS. Pass math.MinInt64 for everything.
func (s *Series) points(fromMS int64) []Point {
	out := make([]Point, 0, s.n)
	ms := s.firstMS
	for k := 0; k < s.n; k++ {
		i := (s.head + k) % len(s.dt)
		if k > 0 {
			ms += int64(s.dt[i])
		}
		if ms >= fromMS {
			out = append(out, Point{T: float64(ms) / 1000, V: s.val[i]})
		}
	}
	return out
}

// Len returns the number of retained points.
func (s *Series) Len() int { return s.n }

// Scrape samples every registry series at the given time (seconds on
// the caller's clock — wall-derived or virtual) and appends one point
// per sample. New samples (a CounterVec label seen for the first time)
// grow the DB; series absent from this snapshot keep their history.
func (db *DB) Scrape(atS float64) {
	db.scrapeMu.Lock()
	defer db.scrapeMu.Unlock()
	vals, gen := db.reg.Values(db.vals[:0])
	db.vals = vals
	var snap []telemetry.SamplePoint
	if gen != db.planGen {
		// Plan against a Snapshot read after gen: if a registration slips
		// in between, the plan is newer than gen and the next scrape
		// re-plans again.
		snap = db.reg.Snapshot()
	}

	ms := int64(math.Round(atS * 1000))
	db.mu.Lock()
	defer db.mu.Unlock()
	if ms <= db.lastMS {
		ms = db.lastMS + 1 // scrapes share the monotonic axis across series
	}
	db.lastMS = ms
	db.scrapes++
	if snap != nil {
		db.planLocked(snap, gen)
		for i, p := range snap {
			db.appendLocked(db.plan[i], ms, p.Value)
		}
		return
	}
	for i, s := range db.plan {
		db.appendLocked(s, ms, vals[i])
	}
}

// planLocked maps each snapshot sample to its series, creating series
// for samples seen for the first time.
func (db *DB) planLocked(snap []telemetry.SamplePoint, gen uint64) {
	db.plan = db.plan[:0]
	for _, p := range snap {
		key := p.Key()
		sr := db.series[key]
		if sr == nil {
			sr = newSeries(p, db.cap)
			db.series[key] = sr
			db.order = append(db.order, key)
			db.dirty = true
		}
		db.plan = append(db.plan, sr)
	}
	db.planGen = gen
}

func (db *DB) appendLocked(s *Series, ms int64, v float64) {
	if s.append(ms, v) {
		db.points++
	}
}

// sortedLocked returns the series keys in sorted order.
func (db *DB) sortedLocked() []string {
	db.indexLocked()
	return db.order
}

// namedLocked returns the series of one sample name in key order.
func (db *DB) namedLocked(name string) []*Series {
	db.indexLocked()
	return db.byName[name]
}

// indexLocked re-sorts the keys and rebuilds the name index after
// series were added.
func (db *DB) indexLocked() {
	if !db.dirty {
		return
	}
	sort.Strings(db.order)
	db.byName = make(map[string][]*Series)
	for _, k := range db.order {
		s := db.series[k]
		db.byName[s.Name] = append(db.byName[s.Name], s)
	}
	db.dirty = false
}

// Stats reports the DB's own accounting.
type Stats struct {
	Series      int     `json:"series"`
	Points      int     `json:"points"`
	Scrapes     int64   `json:"scrapes"`
	LastScrapeS float64 `json:"lastScrapeS"`
}

// Stats returns a snapshot of the DB accounting.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return Stats{Series: len(db.series), Points: db.points, Scrapes: db.scrapes, LastScrapeS: float64(db.lastMS) / 1000}
}

// SeriesDump is one series' recent points, for the debug bundle.
type SeriesDump struct {
	Series string  `json:"series"`
	Type   string  `json:"type"`
	Points []Point `json:"points"`
}

// Dump returns every series' newest points (up to maxPoints each, 0 for
// all), in sorted key order — the flight-recorder view of the database.
func (db *DB) Dump(maxPoints int) []SeriesDump {
	db.mu.Lock()
	defer db.mu.Unlock()
	keys := db.sortedLocked()
	out := make([]SeriesDump, 0, len(keys))
	for _, k := range keys {
		s := db.series[k]
		pts := s.points(math.MinInt64)
		if maxPoints > 0 && len(pts) > maxPoints {
			pts = pts[len(pts)-maxPoints:]
		}
		out = append(out, SeriesDump{Series: k, Type: s.Type, Points: pts})
	}
	return out
}
