package tsdb

import (
	"math"
	"testing"
)

// FuzzQuery fuzzes the query evaluator behind /v1/query, whose fn,
// series, window and q all arrive from the network. On a walked registry
// — labelled and unlabelled families, histograms, escaped label values —
// DB.Query must agree with refQuery, which decodes every matching window
// and reduces it: both reject the same queries, and accepted ones return
// bit-identical values and byte-identical JSON.
func FuzzQuery(f *testing.F) {
	w := newWalkRegistry(7)
	db := New(w.reg, Options{Capacity: 16})
	at := 0.0
	for i := 0; i < 40; i++ {
		w.step()
		at = nextStamp(w.rng, at)
		db.Scrape(at)
	}
	for _, q := range queriesFor(db, w.rng) {
		f.Add(q.Fn, q.Series, q.WindowS, q.Q)
	}
	f.Add("quantile", `vgx_walk_job_seconds{kind="a"`, 1e300, -3.0)
	f.Add("rate", "", math.NaN(), 0.0)
	f.Add("nope", "vgx_walk_level", -1.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, fn, series string, windowS, q float64) {
		query := Query{Fn: fn, Series: series, WindowS: windowS, Q: q}
		got, err := db.Query(query)
		want, refErr := refQuery(db, query)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%+v: error %v, reference error %v", query, err, refErr)
		}
		if err == nil {
			sameResult(t, got, want, query)
		}
	})
}
