package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/fastvg/fastvg/internal/telemetry"
)

// The query evaluator. Queries are structured, not a string language:
// a function, a series selector, and a lookback window. The selector is
// either a full sample key (`vgx_service_inflight`,
// `vgx_service_jobs_total{kind="extract"}`) matching exactly one
// series, or a bare sample name matching every labelled series of that
// name. The quantile function instead takes a histogram *family* name
// (optionally with a label filter) and evaluates over the family's
// `_bucket` series. All evaluation happens at the DB's newest scrape
// time, looking back WindowS seconds; results are emitted in sorted
// series-key order so identical databases marshal byte-identically.

// Query function names.
const (
	FnLast     = "last"     // newest value in the window
	FnAvg      = "avg"      // mean of point values in the window
	FnMin      = "min"      // minimum point value in the window
	FnMax      = "max"      // maximum point value in the window
	FnSum      = "sum"      // sum of point values in the window
	FnRate     = "rate"     // per-second increase across the window (counters)
	FnQuantile = "quantile" // histogram quantile of the window's bucket increases
	FnRange    = "range"    // raw points in the window, no reduction
)

// Query is one evaluation request.
type Query struct {
	Fn      string  `json:"fn"`
	Series  string  `json:"series"`
	WindowS float64 `json:"windowS,omitempty"` // lookback seconds; 0 = full retention
	Q       float64 `json:"q,omitempty"`       // quantile in [0,1], fn=quantile only
}

// Value is a float64 that marshals NaN and ±Inf as null — JSON has no
// spelling for them, and a query over an empty window is not an error.
type Value float64

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}

// UnmarshalJSON maps null back to NaN, so clients (cmd/vgxtop) decode
// query responses losslessly.
func (v *Value) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = Value(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*v = Value(f)
	return nil
}

// SeriesValue is one matched series' reduced value.
type SeriesValue struct {
	Series string `json:"series"`
	Value  Value  `json:"value"`
}

// Result is a query's answer: the echoed request, the evaluation
// timestamp, and either reduced per-series values or (fn=range) raw
// points.
type Result struct {
	Fn      string        `json:"fn"`
	Series  string        `json:"series"`
	WindowS float64       `json:"windowS,omitempty"`
	Q       float64       `json:"q,omitempty"`
	AtS     float64       `json:"atS"`
	Values  []SeriesValue `json:"values,omitempty"`
	Range   []SeriesDump  `json:"range,omitempty"`
}

// Validate rejects a query no database can answer: an empty selector, an
// unknown function, a negative window, or a NaN or infinite window or
// quantile. Q is checked whatever the function, because every result
// echoes it and JSON cannot carry a non-finite number.
func (q Query) Validate() error {
	if q.Series == "" {
		return fmt.Errorf("tsdb: query needs a series selector")
	}
	if math.IsNaN(q.WindowS) || math.IsInf(q.WindowS, 0) {
		return fmt.Errorf("tsdb: non-finite window %v", q.WindowS)
	}
	if q.WindowS < 0 {
		return fmt.Errorf("tsdb: negative window %v", q.WindowS)
	}
	if math.IsNaN(q.Q) || math.IsInf(q.Q, 0) {
		return fmt.Errorf("tsdb: non-finite quantile %v", q.Q)
	}
	switch q.Fn {
	case FnLast, FnAvg, FnMin, FnMax, FnSum, FnRate, FnRange, FnQuantile:
		return nil
	}
	return fmt.Errorf("tsdb: unknown query fn %q", q.Fn)
}

// Query evaluates q against the database. A query Validate rejects is an
// error; a selector matching nothing returns an empty result (the series
// may simply not have been scraped yet).
func (db *DB) Query(q Query) (*Result, error) {
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
		res.Values = db.quantileLocked(q.Series, fromMS, q.Q)
		return res, nil
	}

	// A selector with a label signature is one full key; a bare sample
	// name selects every labelling of that name.
	if strings.IndexByte(q.Series, '{') >= 0 {
		if s := db.series[q.Series]; s != nil {
			res.add(q.Fn, s, fromMS)
		}
		return res, nil
	}
	for _, s := range db.namedLocked(q.Series) {
		res.add(q.Fn, s, fromMS)
	}
	return res, nil
}

// add evaluates fn over one series' window and appends the outcome; a
// series with no point in the window contributes nothing.
func (res *Result) add(fn string, s *Series, fromMS int64) {
	if fn == FnRange {
		if pts := s.points(fromMS); len(pts) > 0 {
			res.Range = append(res.Range, SeriesDump{Series: s.Key, Type: s.Type, Points: pts})
		}
		return
	}
	w, ok := s.window(fromMS)
	if !ok {
		return
	}
	res.Values = append(res.Values, SeriesValue{Series: s.Key, Value: Value(w.reduce(fn))})
}

// A window is the run of a series' points with timestamp >= fromMS,
// located without decoding: from is the ring position (0 = oldest) of
// its first point and fromMS that point's stamp, recovered by
// subtracting deltas back from the newest point.
type window struct {
	s      *Series
	from   int
	fromMS int64
}

// window locates the points at or after fromMS; ok is false when there
// are none.
func (s *Series) window(fromMS int64) (w window, ok bool) {
	if s.n == 0 || s.lastMS < fromMS {
		return window{}, false
	}
	if fromMS <= s.firstMS {
		return window{s: s, from: 0, fromMS: s.firstMS}, true // the whole ring
	}
	k, ms := s.n-1, s.lastMS
	for k > 0 {
		prev := ms - int64(s.dt[(s.head+k)%len(s.dt)])
		if prev < fromMS {
			break
		}
		k, ms = k-1, prev
	}
	return window{s: s, from: k, fromMS: ms}, true
}

func (w window) len() int { return w.s.n - w.from }

// at returns the value of the window's k-th point, oldest first.
func (w window) at(k int) float64 {
	s := w.s
	return s.val[(s.head+w.from+k)%len(s.val)]
}

func (w window) last() float64 { return w.at(w.len() - 1) }

// reduce folds the window's values, oldest first — the same float
// operations in the same order as reducing the decoded points.
func (w window) reduce(fn string) float64 {
	n := w.len()
	switch fn {
	case FnLast:
		return w.last()
	case FnAvg, FnSum:
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += w.at(k)
		}
		if fn == FnAvg {
			return sum / float64(n)
		}
		return sum
	case FnMin:
		m := w.at(0)
		for k := 1; k < n; k++ {
			m = math.Min(m, w.at(k))
		}
		return m
	case FnMax:
		m := w.at(0)
		for k := 1; k < n; k++ {
			m = math.Max(m, w.at(k))
		}
		return m
	case FnRate:
		if n < 2 {
			return math.NaN()
		}
		dt := float64(w.s.lastMS)/1000 - float64(w.fromMS)/1000
		if dt <= 0 {
			return math.NaN()
		}
		dv := w.last() - w.at(0)
		if dv < 0 {
			dv = 0 // counter reset (restart); the tsdb restarts with it, but stay safe
		}
		return dv / dt
	}
	return math.NaN()
}

// quantileLocked evaluates a histogram quantile for the family named by
// sel (optionally `family{labels}` pinning one label set). For each
// distinct non-le label set it computes the per-bucket increase over
// the window and interpolates; when the window shows no increase it
// falls back to the all-time cumulative distribution, so a freshly
// scraped or idle histogram still answers.
func (db *DB) quantileLocked(sel string, fromMS int64, p float64) []SeriesValue {
	family := sel
	wantRest := ""
	pinned := false
	if i := strings.IndexByte(sel, '{'); i >= 0 && strings.HasSuffix(sel, "}") {
		family = sel[:i]
		wantRest = sel[i+1 : len(sel)-1]
		pinned = true
	}
	buckets := db.namedLocked(family + "_bucket")

	// Discover the distinct non-le label sets first, then evaluate each
	// group with its buckets re-sorted by numeric bound — lexical sig
	// order puts le="10" before le="2", so key order cannot pair them.
	var rests []string
	for _, s := range buckets {
		if s.Family != family || !s.isLE || (pinned && s.leRest != wantRest) || slices.Contains(rests, s.leRest) {
			continue
		}
		rests = append(rests, s.leRest)
	}
	sort.Strings(rests)

	out := make([]SeriesValue, 0, len(rests))
	type bkt struct {
		le       float64
		inc, all float64
		hasInc   bool
	}
	var bkts []bkt
	for _, rest := range rests {
		bkts = bkts[:0]
		for _, s := range buckets {
			if s.Family != family || !s.isLE || s.leRest != rest {
				continue
			}
			w, ok := s.window(fromMS)
			if !ok {
				continue
			}
			b := bkt{le: s.le, all: w.last()}
			if w.len() >= 2 {
				b.inc = w.last() - w.at(0)
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
			totalInc = b.inc // cumulative: the last (+Inf) bucket holds the total
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

// splitLE strips the `le="..."` pair out of a bucket series' label
// signature, returning the remaining signature and the parsed bound.
func splitLE(sig string) (rest string, le float64, ok bool) {
	segs := splitSig(sig)
	kept := segs[:0]
	found := false
	for _, seg := range segs {
		if v, isLE := strings.CutPrefix(seg, `le="`); isLE && strings.HasSuffix(v, `"`) {
			f, err := strconv.ParseFloat(strings.TrimSuffix(v, `"`), 64)
			if err != nil {
				return "", 0, false
			}
			le, found = f, true
			continue
		}
		kept = append(kept, seg)
	}
	if !found {
		return "", 0, false
	}
	return strings.Join(kept, ","), le, true
}

// splitSig splits a label signature on top-level commas, respecting
// quoted (and backslash-escaped) label values.
func splitSig(sig string) []string {
	if sig == "" {
		return nil
	}
	var out []string
	start, inQuote, escaped := 0, false, false
	for i := 0; i < len(sig); i++ {
		c := sig[i]
		switch {
		case escaped:
			escaped = false
		case c == '\\' && inQuote:
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, sig[start:i])
			start = i + 1
		}
	}
	out = append(out, sig[start:])
	return out
}
