// Package telemetry is the dependency-free observability core of the
// repository: a metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text-format exposition, and a span tracer
// (span.go) that records job→pipeline→pair→probe-batch timing trees on
// both the wall clock and the simulated instrument clock.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Counter.Inc / Counter.Add / Gauge.Set /
//     Histogram.Observe are single atomic operations (plus a bucket
//     binary search for histograms) and perform zero allocations, so
//     they are safe on the probe hot path (~100 ns per probe).
//  2. Determinism. Exposition orders families by name and series by
//     label signature, and label signatures themselves are built from
//     key-sorted labels, so two registries fed the same events render
//     byte-identical text. This is what the worker-count property test
//     in internal/service asserts, and what the shard router merges.
//     The order lives in one layout (layout.go), built once per
//     registration, that serves Expose, Snapshot and the tsdb's
//     values-only scrape alike.
//  3. Fail-loud registration. Registering a duplicate name+labels, an
//     un-prefixed or non-snake_case name, or the same family under two
//     types panics at wiring time. The metric-name lint in CI is simply
//     "the full stack wires up without panicking" plus a walk over the
//     registered names.
//
// Metric names must match ^vgx(_[a-z0-9]+)+$ — `vgx_`-prefixed
// snake_case — so every family from this codebase is recognisable in a
// shared Prometheus.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// nameRE is the registration lint: vgx_-prefixed snake_case.
var (
	nameRE     = regexp.MustCompile(`^vgx(_[a-z0-9]+)+$`)
	labelKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// A Label is one key="value" pair attached to a metric series. Keys must
// be snake_case identifiers; values are escaped at exposition time.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric is the value reader each concrete metric satisfies. The
// samples a series contributes are fixed at registration and listed by
// the registry layout (layout.go); appendValues appends their current
// values in that order: one value, or a histogram's cumulative buckets
// by bound, then +Inf, _sum and _count.
type metric interface {
	appendValues(dst []float64) []float64
}

// family groups every series registered under one metric name.
type family struct {
	name string
	help string
	typ  string   // "counter" | "gauge" | "histogram"
	keys []string // sorted label keys, identical across the family

	series map[string]metric // label signature -> metric
}

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	gen      uint64    // bumped by every registration
	lay      *layout   // sample layout, rebuilt on the first read after gen moves
	scratch  []float64 // value buffer reused by Expose and Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature renders key-sorted labels as `k1="v1",k2="v2"` (keys are
// pre-validated; values escaped). Empty for an unlabelled series.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func labelKeys(labels []Label) []string {
	keys := make([]string, len(labels))
	for i, l := range labels {
		keys[i] = l.Key
	}
	sort.Strings(keys)
	return keys
}

// register adds a series, creating its family on first use. It panics
// on any inconsistency: bad name, duplicate series, type or label-key
// mismatch with the existing family.
func (r *Registry) register(name, help, typ string, labels []Label, m metric) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: metric name %q must be vgx_-prefixed snake_case", name))
	}
	for _, l := range labels {
		if !labelKeyRE.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: label key %q on %q must be snake_case", l.Key, name))
		}
	}
	keys := labelKeys(labels)
	sig := signature(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, keys: keys, series: make(map[string]metric)}
		r.families[name] = f
	} else {
		if f.typ != typ {
			panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.typ, typ))
		}
		if strings.Join(f.keys, ",") != strings.Join(keys, ",") {
			panic(fmt.Sprintf("telemetry: metric %q label keys %v conflict with %v", name, keys, f.keys))
		}
	}
	if _, dup := f.series[sig]; dup {
		panic(fmt.Sprintf("telemetry: duplicate registration of %s{%s}", name, sig))
	}
	f.series[sig] = m
	r.gen++
}

// Names returns the registered family names, sorted. Used by the
// metric-name lint and the docs catalogue test.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing integer metric. All methods are
// lock-free and allocation-free.
//
// One deliberate deviation from Prometheus purity: the service's cache
// "coalesced" series is registered as a gauge, not a counter, because a
// coalesced waiter that abandons the flight is un-counted (see
// internal/service/cache.go). Counters created here never decrement.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. n must be non-negative for counters; the cache's
// gauge-typed uncount path is the only caller that passes a negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) appendValues(dst []float64) []float64 {
	return append(dst, float64(c.v.Load()))
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels, c)
	return c
}

// IntGauge registers a Counter-backed series exposed with gauge type:
// an integer value that may go down. Used for the rare logically
// decrementable counts (cache coalesce uncounting).
func (r *Registry) IntGauge(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, "gauge", labels, c)
	return c
}

// ---------------------------------------------------------------------
// Gauge

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) appendValues(dst []float64) []float64 {
	return append(dst, g.Value())
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", labels, g)
	return g
}

// funcGauge evaluates fn at exposition time. fn must not call back into
// the registry (the registry mutex is held during exposition).
type funcGauge struct {
	fn func() float64
}

func (f funcGauge) appendValues(dst []float64) []float64 {
	return append(dst, f.fn())
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. fn must be safe to call concurrently and must not touch the
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, funcGauge{fn: fn})
}

// ---------------------------------------------------------------------
// Histogram

// Default bucket layouts. SecondsBuckets spans 100 µs .. 10 s (job and
// journal-append latencies); ProbeBuckets spans typical probe counts
// per extraction; UnitBuckets covers [0,1] quantities such as surrogate
// confidence.
var (
	SecondsBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	ProbeBuckets   = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
	UnitBuckets    = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}
)

// Histogram is a fixed-bucket cumulative histogram. Observe is
// lock-free: a binary search over the (immutable) upper bounds, one
// atomic bucket increment, one atomic count increment and a CAS float
// add for the sum. Zero allocations.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf excluded
	counts  []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.bounds) {
		h.counts[lo].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the p-quantile of the observed distribution by
// linear interpolation within the bucket the quantile falls in — the
// same estimate Prometheus's histogram_quantile computes server-side,
// available in-process for alert rules and dashboard columns. Edge
// behaviour: NaN when the histogram is empty or p is NaN, the lowest
// bound's bucket interpolates down to zero, and a quantile landing in
// the +Inf bucket returns the highest finite bound (the estimate is a
// lower bound there, not an extrapolation). p is clamped to [0, 1].
func (h *Histogram) Quantile(p float64) float64 {
	cum := make([]float64, len(h.bounds)+1)
	var total uint64
	for i := range h.bounds {
		total += h.counts[i].Load()
		cum[i] = float64(total)
	}
	total += h.inf.Load()
	cum[len(h.bounds)] = float64(total)
	return QuantileFromBuckets(h.bounds, cum, p)
}

// QuantileFromBuckets estimates the p-quantile from a cumulative bucket
// snapshot: bounds are the finite upper bounds (sorted ascending) and
// cum the cumulative counts per bucket with the +Inf bucket appended
// (len(cum) == len(bounds)+1). Counts may be fractional — windowed
// rates from the tsdb divide through time. Shared by Histogram.Quantile
// and the tsdb quantile query so both report identical estimates.
func QuantileFromBuckets(bounds []float64, cum []float64, p float64) float64 {
	if len(cum) != len(bounds)+1 || math.IsNaN(p) {
		return math.NaN()
	}
	total := cum[len(cum)-1]
	if !(total > 0) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := p * total
	// First bucket whose cumulative count reaches the rank.
	i := sort.SearchFloat64s(cum, rank)
	if i >= len(bounds) {
		// The +Inf bucket: no upper bound to interpolate toward.
		if len(bounds) == 0 {
			return math.NaN()
		}
		return bounds[len(bounds)-1]
	}
	lo, hi := 0.0, bounds[i]
	prev := 0.0
	if i > 0 {
		lo = bounds[i-1]
		prev = cum[i-1]
	}
	inBucket := cum[i] - prev
	if !(inBucket > 0) {
		return hi
	}
	return lo + (hi-lo)*(rank-prev)/inBucket
}

func (h *Histogram) appendValues(dst []float64) []float64 {
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		dst = append(dst, float64(cum))
	}
	cum += h.inf.Load()
	return append(dst, float64(cum), h.Sum(), float64(h.count.Load()))
}

// Histogram registers and returns a histogram series with the given
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", labels, h)
	return h
}

// ---------------------------------------------------------------------
// Vecs: lazily-populated single-label families

// CounterVec manages counter series of one family distinguished by a
// single label (e.g. vgx_service_probes_total{method=...}). With is the
// only allocation point; hold the returned *Counter for hot paths.
type CounterVec struct {
	r    *Registry
	name string
	help string
	key  string

	mu sync.Mutex
	m  map[string]*Counter
}

// CounterVec registers a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{r: r, name: name, help: help, key: labelKey, m: make(map[string]*Counter)}
}

// With returns the counter for the given label value, registering it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.m[value]; ok {
		return c
	}
	c := v.r.Counter(v.name, v.help, Label{Key: v.key, Value: value})
	v.m[value] = c
	return c
}

// Snapshot returns label value -> count for every series seen so far.
func (v *CounterVec) Snapshot() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Value()
	}
	return out
}

// HistogramVec manages histogram series of one family distinguished by
// a single label (e.g. vgx_service_job_seconds{kind=...}).
type HistogramVec struct {
	r       *Registry
	name    string
	help    string
	key     string
	buckets []float64

	mu sync.Mutex
	m  map[string]*Histogram
}

// HistogramVec registers a histogram family keyed by one label.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKey string) *HistogramVec {
	return &HistogramVec{r: r, name: name, help: help, key: labelKey, buckets: buckets, m: make(map[string]*Histogram)}
}

// With returns the histogram for the given label value, registering it
// on first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.m[value]; ok {
		return h
	}
	h := v.r.Histogram(v.name, v.help, v.buckets, Label{Key: v.key, Value: value})
	v.m[value] = h
	return h
}

// ---------------------------------------------------------------------
// Exposition helpers (shared with layout.go and render.go)

func joinSig(sig, extra string) string {
	if sig == "" {
		return extra
	}
	return sig + "," + extra
}

// formatValue renders floats the way Prometheus clients do: integers
// without a decimal point, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendValue is formatValue appending to b.
func appendValue(b []byte, v float64) []byte {
	if math.IsInf(v, 1) {
		return append(b, "+Inf"...)
	}
	if math.IsInf(v, -1) {
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
