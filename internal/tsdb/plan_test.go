package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/fastvg/fastvg/internal/telemetry"
)

// Reference read and write paths: the scrape, query and stats code the
// DB ran before scrapes were planned and queries indexed, kept here to
// pin the planned scrape and the windowed reductions to it.

// refScrape feeds db the unplanned way: a full Snapshot, one key and one
// map lookup per sample.
func refScrape(db *DB, atS float64) {
	snap := db.reg.Snapshot()
	ms := int64(math.Round(atS * 1000))
	db.mu.Lock()
	defer db.mu.Unlock()
	if ms <= db.lastMS {
		ms = db.lastMS + 1
	}
	db.lastMS = ms
	db.scrapes++
	for _, p := range snap {
		key := p.Key()
		sr := db.series[key]
		if sr == nil {
			sr = newSeries(p, db.cap)
			db.series[key] = sr
			db.order = append(db.order, key)
			db.dirty = true
		}
		sr.append(ms, p.Value)
	}
}

// refPoints walks every ring.
func refPoints(db *DB) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, s := range db.series {
		n += s.n
	}
	return n
}

func refSelectorMatches(sel string, s *Series) bool {
	if strings.ContainsRune(sel, '{') {
		return sel == s.Key
	}
	return sel == s.Name
}

func refReduce(fn string, pts []Point) float64 {
	switch fn {
	case FnLast:
		return pts[len(pts)-1].V
	case FnAvg:
		sum := 0.0
		for _, p := range pts {
			sum += p.V
		}
		return sum / float64(len(pts))
	case FnMin:
		m := pts[0].V
		for _, p := range pts[1:] {
			m = math.Min(m, p.V)
		}
		return m
	case FnMax:
		m := pts[0].V
		for _, p := range pts[1:] {
			m = math.Max(m, p.V)
		}
		return m
	case FnSum:
		sum := 0.0
		for _, p := range pts {
			sum += p.V
		}
		return sum
	case FnRate:
		if len(pts) < 2 {
			return math.NaN()
		}
		first, last := pts[0], pts[len(pts)-1]
		dt := last.T - first.T
		if dt <= 0 {
			return math.NaN()
		}
		dv := last.V - first.V
		if dv < 0 {
			dv = 0
		}
		return dv / dt
	}
	return math.NaN()
}

// refQuery decodes every matching series' window, then reduces it.
func refQuery(db *DB, q Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	res := &Result{Fn: q.Fn, Series: q.Series, WindowS: q.WindowS, AtS: float64(db.lastMS) / 1000}
	fromMS := int64(math.MinInt64)
	if q.WindowS > 0 {
		fromMS = db.lastMS - int64(math.Round(q.WindowS*1000))
	}
	if q.Fn == FnQuantile {
		res.Q = q.Q
		res.Values = refQuantile(db, q.Series, fromMS, q.Q)
		return res, nil
	}
	for _, key := range db.sortedLocked() {
		s := db.series[key]
		if !refSelectorMatches(q.Series, s) {
			continue
		}
		pts := s.points(fromMS)
		if len(pts) == 0 {
			continue
		}
		if q.Fn == FnRange {
			res.Range = append(res.Range, SeriesDump{Series: key, Type: s.Type, Points: pts})
			continue
		}
		res.Values = append(res.Values, SeriesValue{Series: key, Value: Value(refReduce(q.Fn, pts))})
	}
	return res, nil
}

func refQuantile(db *DB, sel string, fromMS int64, p float64) []SeriesValue {
	family := sel
	wantRest := ""
	pinned := false
	if i := strings.IndexByte(sel, '{'); i >= 0 && strings.HasSuffix(sel, "}") {
		family = sel[:i]
		wantRest = sel[i+1 : len(sel)-1]
		pinned = true
	}
	seen := map[string]bool{}
	var rests []string
	for _, key := range db.sortedLocked() {
		s := db.series[key]
		if s.Family != family || s.Name != family+"_bucket" {
			continue
		}
		rest, _, ok := splitLE(s.Sig)
		if !ok || (pinned && rest != wantRest) || seen[rest] {
			continue
		}
		seen[rest] = true
		rests = append(rests, rest)
	}
	sort.Strings(rests)
	out := make([]SeriesValue, 0, len(rests))
	for _, rest := range rests {
		type bkt struct {
			le       float64
			inc, all float64
			hasInc   bool
		}
		var bkts []bkt
		for _, key := range db.sortedLocked() {
			s := db.series[key]
			if s.Family != family || s.Name != family+"_bucket" {
				continue
			}
			r, le, ok := splitLE(s.Sig)
			if !ok || r != rest {
				continue
			}
			pts := s.points(fromMS)
			if len(pts) == 0 {
				continue
			}
			b := bkt{le: le, all: pts[len(pts)-1].V}
			if len(pts) >= 2 {
				b.inc = pts[len(pts)-1].V - pts[0].V
				if b.inc < 0 {
					b.inc = 0
				}
				b.hasInc = true
			}
			bkts = append(bkts, b)
		}
		if len(bkts) == 0 {
			continue
		}
		sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
		bounds := make([]float64, 0, len(bkts)-1)
		inc := make([]float64, 0, len(bkts))
		all := make([]float64, 0, len(bkts))
		useInc := true
		totalInc := 0.0
		for _, b := range bkts {
			if !math.IsInf(b.le, 1) {
				bounds = append(bounds, b.le)
			}
			inc = append(inc, b.inc)
			all = append(all, b.all)
			if !b.hasInc {
				useInc = false
			}
			totalInc = b.inc
		}
		cum := all
		if useInc && totalInc > 0 {
			cum = inc
		}
		v := telemetry.QuantileFromBuckets(bounds, cum, p)
		name := family
		if rest != "" {
			name = family + "{" + rest + "}"
		}
		out = append(out, SeriesValue{Series: name, Value: Value(v)})
	}
	return out
}

// sameResult compares two query results bit for bit and byte for byte.
func sameResult(t *testing.T, got, want *Result, q Query) {
	t.Helper()
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%+v: %d values, want %d", q, len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		g, w := got.Values[i], want.Values[i]
		if g.Series != w.Series || math.Float64bits(float64(g.Value)) != math.Float64bits(float64(w.Value)) {
			t.Fatalf("%+v: value %d = %s %v, want %s %v", q, i, g.Series, float64(g.Value), w.Series, float64(w.Value))
		}
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatalf("%+v: JSON diverged\n got %s\nwant %s", q, gb, wb)
	}
}

// walkRegistry mutates a registry the way a daemon does: new vec labels
// and new families between scrapes, counters, gauges and histograms
// moving in between.
type walkRegistry struct {
	reg    *telemetry.Registry
	rng    *rand.Rand
	cv     *telemetry.CounterVec
	hv     *telemetry.HistogramVec
	cs     []*telemetry.Counter
	gs     []*telemetry.Gauge
	hs     []*telemetry.Histogram
	labels []string
	n      int
}

func newWalkRegistry(seed int64) *walkRegistry {
	reg := telemetry.NewRegistry()
	w := &walkRegistry{reg: reg, rng: rand.New(rand.NewSource(seed)),
		labels: []string{"a", "b", `q"t`, `b\s`, "n\nl", "c"}}
	w.cv = reg.CounterVec("vgx_walk_jobs_total", "jobs", "kind")
	w.hv = reg.HistogramVec("vgx_walk_job_seconds", "latency", []float64{0.1, 1, 10, 2.5}, "kind")
	w.cs = append(w.cs, reg.Counter("vgx_walk_shed_total", "shed"))
	w.gs = append(w.gs, reg.Gauge("vgx_walk_level", "level"))
	w.hs = append(w.hs, reg.Histogram("vgx_walk_seconds", "h", []float64{0.5, 1}))
	reg.GaugeFunc("vgx_walk_fn", "fn", func() float64 { return float64(w.n % 7) })
	return w
}

// step registers something new with probability 1/4, then observes.
func (w *walkRegistry) step() {
	w.n++
	if w.rng.Intn(4) == 0 {
		switch w.rng.Intn(4) {
		case 0:
			w.cv.With(w.labels[w.rng.Intn(len(w.labels))])
		case 1:
			w.hv.With(w.labels[w.rng.Intn(len(w.labels))])
		case 2:
			w.cs = append(w.cs, w.reg.Counter(fmt.Sprintf("vgx_walk_c%d_total", w.n), "c"))
		case 3:
			w.gs = append(w.gs, w.reg.Gauge("vgx_walk_zone", "z", telemetry.L("zone", fmt.Sprint(w.n))))
		}
	}
	for i := 0; i < 4; i++ {
		l := w.labels[w.rng.Intn(len(w.labels))]
		w.cv.With(l).Add(int64(w.rng.Intn(3)))
		w.hv.With(l).Observe(w.rng.ExpFloat64())
		w.cs[w.rng.Intn(len(w.cs))].Add(int64(w.rng.Intn(5)))
		w.gs[w.rng.Intn(len(w.gs))].Set(w.rng.NormFloat64())
		w.hs[w.rng.Intn(len(w.hs))].Observe(w.rng.Float64() * 2)
	}
}

// nextStamp draws the next scrape time: mostly forward, sometimes stale
// or duplicate, sometimes a gap past the uint32 millisecond delta.
func nextStamp(rng *rand.Rand, at float64) float64 {
	switch rng.Intn(10) {
	case 0:
		return at - rng.Float64()*5 // stale
	case 1:
		return at // duplicate
	case 2:
		return at + 5e6 + rng.Float64()*1e6 // > MaxUint32 ms: clamped
	case 3:
		return at + 0.0004 // rounds onto the same millisecond
	}
	return at + 0.5 + rng.Float64()*10
}

// A DB scraped through the plan holds byte-identical contents to one fed
// the unplanned way after every scrape, across registrations between
// scrapes, ring wrap, stale and duplicate stamps and clamped gaps; Stats
// keeps a running point total equal to a walk over every ring.
func TestPlannedScrapeMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 24} {
		w := newWalkRegistry(int64(capacity))
		db := New(w.reg, Options{Capacity: capacity})
		ref := New(w.reg, Options{Capacity: capacity})
		at := 0.0
		for i := 0; i < 60; i++ {
			w.step()
			at = nextStamp(w.rng, at)
			db.Scrape(at)
			refScrape(ref, at)
			got, _ := json.Marshal(db.Dump(0))
			want, _ := json.Marshal(ref.Dump(0))
			if string(got) != string(want) {
				t.Fatalf("cap %d scrape %d: dumps diverged\n got %s\nwant %s", capacity, i, got, want)
			}
			st := db.Stats()
			if st.Points != refPoints(db) || st.Series != len(ref.series) || st.Scrapes != ref.scrapes || st.LastScrapeS != float64(ref.lastMS)/1000 {
				t.Fatalf("cap %d scrape %d: stats %+v, walk %d points", capacity, i, st, refPoints(db))
			}
		}
	}
}

// One-point rings stamp their point with the scrape that wrote it.
func TestRingCapacityOne(t *testing.T) {
	s := newSeries(telemetry.SamplePoint{Name: "x", Family: "x", Type: "gauge"}, 1)
	for i := 1; i <= 3; i++ {
		s.append(int64(i*1000), float64(i))
	}
	if pts := s.points(math.MinInt64); len(pts) != 1 || pts[0] != (Point{T: 3, V: 3}) {
		t.Fatalf("points = %+v, want one point at t=3", pts)
	}
}

// queriesFor lists a query of every fn over every selector shape, with
// windows of 0, windows starting exactly at a retained point's stamp or
// 1 ms either side of it, and windows beyond retention.
func queriesFor(db *DB, rng *rand.Rand) []Query {
	db.mu.Lock()
	keys := append([]string(nil), db.sortedLocked()...)
	lastMS := db.lastMS
	var stamps []int64
	for _, k := range keys {
		s := db.series[k]
		ms := s.firstMS
		for i := 0; i < s.n; i++ {
			if i > 0 {
				ms += int64(s.dt[(s.head+i)%len(s.dt)])
			}
			stamps = append(stamps, ms)
		}
	}
	db.mu.Unlock()

	windows := []float64{0, float64(lastMS)/1000 + 1e4}
	for i := 0; i < 3 && len(stamps) > 0; i++ {
		ms := stamps[rng.Intn(len(stamps))]
		for _, d := range []int64{-1, 0, 1} {
			if x := lastMS - ms + d; x > 0 {
				windows = append(windows, float64(x)/1000)
			}
		}
	}
	selectors := []string{"vgx_walk_shed_total", "vgx_walk_jobs_total", "vgx_walk_level", "vgx_walk_fn",
		"vgx_walk_zone", "vgx_walk_job_seconds_bucket", "vgx_walk_seconds_sum", "vgx_nope", "vgx_walk_jobs_total{kind=\"zz\"}"}
	if len(keys) > 0 {
		for i := 0; i < 3; i++ {
			selectors = append(selectors, keys[rng.Intn(len(keys))]) // full keys, labelled or not
		}
	}
	quantiles := []string{"vgx_walk_job_seconds", "vgx_walk_seconds", `vgx_walk_job_seconds{kind="a"}`,
		`vgx_walk_job_seconds{kind="q\"t"}`, `vgx_walk_job_seconds{kind="n\nl"}`, `vgx_walk_job_seconds{kind="none"}`, "vgx_walk_level"}

	var qs []Query
	for _, win := range windows {
		for _, sel := range selectors {
			for _, fn := range []string{FnLast, FnAvg, FnMin, FnMax, FnSum, FnRate, FnRange} {
				qs = append(qs, Query{Fn: fn, Series: sel, WindowS: win})
			}
		}
		for _, sel := range quantiles {
			for _, p := range []float64{0, 0.5, 0.99, 1} {
				qs = append(qs, Query{Fn: FnQuantile, Series: sel, WindowS: win, Q: p})
			}
		}
	}
	return qs
}

// Indexed, windowed queries are bit-identical to decoding the window and
// reducing it, for every fn and selector shape, with result JSON
// byte-identical.
func TestQueryMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 512} {
		w := newWalkRegistry(100 + int64(capacity))
		db := New(w.reg, Options{Capacity: capacity})
		at := 0.0
		checked := 0
		for i := 0; i < 40; i++ {
			w.step()
			at = nextStamp(w.rng, at)
			db.Scrape(at)
			if i%8 != 7 {
				continue
			}
			for _, q := range queriesFor(db, w.rng) {
				got, err := db.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := refQuery(db, q)
				sameResult(t, got, want, q)
				checked += len(want.Values) + len(want.Range)
			}
		}
		if checked < 1000 {
			t.Fatalf("cap %d: only %d results compared; the walk is too thin", capacity, checked)
		}
	}
}

// Scrapes, queries, stats, exposition and registrations race freely.
// The registry's tsdb gauges call Stats from inside the registry read,
// as the daemon's do, so this also guards the lock order between a
// scrape's registry read and db.mu.
func TestConcurrentScrapeQueryExpose(t *testing.T) {
	reg := telemetry.NewRegistry()
	db := New(reg, Options{Capacity: 32})
	reg.GaugeFunc("vgx_tsdb_series", "s", func() float64 { return float64(db.Stats().Series) })
	reg.GaugeFunc("vgx_tsdb_points", "p", func() float64 { return float64(db.Stats().Points) })
	cv := reg.CounterVec("vgx_race_total", "r", "kind")
	hv := reg.HistogramVec("vgx_race_seconds", "r", []float64{0.1, 1}, "kind")

	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fn(i)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		run(func(i int) { db.Scrape(float64(i)) })
		run(func(i int) {
			kind := fmt.Sprintf("k%d", (i*7+g)%40)
			cv.With(kind).Inc()
			hv.With(kind).Observe(float64(i%3) * 0.4)
		})
	}
	run(func(i int) {
		for _, q := range []Query{
			{Fn: FnRate, Series: "vgx_race_total", WindowS: 5},
			{Fn: FnQuantile, Series: "vgx_race_seconds", Q: 0.9},
			{Fn: FnLast, Series: `vgx_race_total{kind="k1"}`},
			{Fn: FnRange, Series: "vgx_tsdb_points", WindowS: 3},
		} {
			if _, err := db.Query(q); err != nil {
				t.Error(err)
			}
		}
	})
	run(func(int) { db.Stats() })
	run(func(int) {
		if reg.Expose() == "" {
			t.Error("empty exposition")
		}
	})
	wg.Wait()

	db.Scrape(1e3)
	if st := db.Stats(); st.Points != refPoints(db) {
		t.Fatalf("stats points %d, walk %d", st.Points, refPoints(db))
	}
}

// A steady-state scrape — no registration since the last one — reads
// values only and appends them in place: zero allocations.
func TestScrapeAllocs(t *testing.T) {
	reg := benchRegistry()
	db := New(reg, Options{Capacity: 512})
	reg.GaugeFunc("vgx_bench_tsdb_points", "p", func() float64 { return float64(db.Stats().Points) })
	db.Scrape(0)
	at := 0.0
	if n := testing.AllocsPerRun(100, func() {
		at += 0.1
		db.Scrape(at)
	}); n != 0 {
		t.Fatalf("steady-state scrape allocates %v times", n)
	}
}
