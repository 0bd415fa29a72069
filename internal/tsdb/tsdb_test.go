package tsdb

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/fastvg/fastvg/internal/telemetry"
)

func testRegistry() (*telemetry.Registry, *telemetry.Counter, *telemetry.Gauge, *telemetry.Histogram) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("vgx_test_jobs_total", "jobs")
	g := reg.Gauge("vgx_test_inflight", "inflight")
	h := reg.Histogram("vgx_test_seconds", "latency", []float64{0.1, 1, 10})
	return reg, c, g, h
}

func TestRingAppendAndEvict(t *testing.T) {
	s := newSeries(telemetry.SamplePoint{Name: "x", Family: "x", Type: "gauge"}, 4)
	for i := 0; i < 10; i++ {
		s.append(int64(i*1000), float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	pts := s.points(math.MinInt64)
	want := []Point{{6, 6}, {7, 7}, {8, 8}, {9, 9}}
	if len(pts) != len(want) {
		t.Fatalf("points = %+v, want %+v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("points[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
	// Window filter keeps only newer points.
	if got := s.points(8000); len(got) != 2 || got[0].T != 8 {
		t.Errorf("points(8000) = %+v, want last two", got)
	}
}

func TestRingMonotonicClamp(t *testing.T) {
	s := newSeries(telemetry.SamplePoint{Name: "x", Family: "x", Type: "gauge"}, 8)
	s.append(5000, 1)
	s.append(4000, 2) // stale stamp: nudged to 5001
	s.append(5001, 3) // duplicate: nudged to 5002
	pts := s.points(math.MinInt64)
	want := []float64{5, 5.001, 5.002}
	for i, w := range want {
		if pts[i].T != w {
			t.Errorf("pts[%d].T = %v, want %v", i, pts[i].T, w)
		}
	}
}

func TestScrapeAndLast(t *testing.T) {
	reg, c, g, h := testRegistry()
	db := New(reg, Options{Capacity: 16})
	c.Add(3)
	g.Set(2)
	h.Observe(0.5)
	db.Scrape(10)
	c.Add(2)
	db.Scrape(20)

	res, err := db.Query(Query{Fn: FnLast, Series: "vgx_test_jobs_total"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || float64(res.Values[0].Value) != 5 {
		t.Fatalf("last = %+v, want 5", res.Values)
	}
	if res.AtS != 20 {
		t.Errorf("AtS = %v, want 20", res.AtS)
	}
	st := db.Stats()
	if st.Scrapes != 2 || st.LastScrapeS != 20 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueryFunctions(t *testing.T) {
	reg, c, g, _ := testRegistry()
	db := New(reg, Options{Capacity: 64})
	for i := 1; i <= 4; i++ {
		c.Add(10) // 10, 20, 30, 40
		g.Set(float64(i))
		db.Scrape(float64(i * 10)) // t = 10, 20, 30, 40
	}
	cases := []struct {
		fn, series string
		window     float64
		want       float64
	}{
		{FnLast, "vgx_test_inflight", 0, 4},
		{FnMin, "vgx_test_inflight", 0, 1},
		{FnMax, "vgx_test_inflight", 0, 4},
		{FnAvg, "vgx_test_inflight", 0, 2.5},
		{FnSum, "vgx_test_inflight", 0, 10},
		{FnRate, "vgx_test_jobs_total", 0, 1},    // (40-10)/(40-10)
		{FnMax, "vgx_test_inflight", 15, 4},      // window [25,40]: points 3,4
		{FnMin, "vgx_test_inflight", 15, 3},      // t=30 is inside the window
		{FnRate, "vgx_test_jobs_total", 10.5, 1}, // two points
	}
	for _, tc := range cases {
		res, err := db.Query(Query{Fn: tc.fn, Series: tc.series, WindowS: tc.window})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Values) != 1 {
			t.Fatalf("%s(%s,%v): values = %+v", tc.fn, tc.series, tc.window, res.Values)
		}
		if got := float64(res.Values[0].Value); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s(%s,%v) = %v, want %v", tc.fn, tc.series, tc.window, got, tc.want)
		}
	}

	// Range returns the raw points.
	res, err := db.Query(Query{Fn: FnRange, Series: "vgx_test_inflight", WindowS: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Range) != 1 || len(res.Range[0].Points) != 2 {
		t.Fatalf("range = %+v, want 2 points", res.Range)
	}

	// No match is empty, not an error; bad fn is an error.
	if res, err := db.Query(Query{Fn: FnLast, Series: "vgx_nope"}); err != nil || len(res.Values) != 0 {
		t.Errorf("no-match query = %+v, %v", res, err)
	}
	if _, err := db.Query(Query{Fn: "median", Series: "vgx_test_inflight"}); err == nil {
		t.Error("unknown fn accepted")
	}
	if _, err := db.Query(Query{Fn: FnLast, Series: ""}); err == nil {
		t.Error("empty selector accepted")
	}
}

// A NaN or infinite window or quantile is rejected for every function:
// every result echoes both, and JSON has no spelling for them.
func TestQueryRejectsNonFinite(t *testing.T) {
	reg, _, _, _ := testRegistry()
	db := New(reg, Options{Capacity: 16})
	db.Scrape(10)
	for _, fn := range []string{FnLast, FnAvg, FnMin, FnMax, FnSum, FnRate, FnQuantile, FnRange} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := db.Query(Query{Fn: fn, Series: "vgx_test_seconds", WindowS: bad}); err == nil {
				t.Errorf("fn=%s window=%v accepted", fn, bad)
			}
			if _, err := db.Query(Query{Fn: fn, Series: "vgx_test_seconds", Q: bad}); err == nil {
				t.Errorf("fn=%s q=%v accepted", fn, bad)
			}
		}
		if _, err := db.Query(Query{Fn: fn, Series: "vgx_test_seconds", WindowS: 60, Q: 0.5}); err != nil {
			t.Errorf("fn=%s finite query rejected: %v", fn, err)
		}
	}
}

func TestQueryLabelledSelector(t *testing.T) {
	reg := telemetry.NewRegistry()
	cv := reg.CounterVec("vgx_test_kinds_total", "k", "kind")
	db := New(reg, Options{})
	cv.With("a").Add(1)
	cv.With("b").Add(2)
	db.Scrape(1)

	res, _ := db.Query(Query{Fn: FnLast, Series: "vgx_test_kinds_total"})
	if len(res.Values) != 2 {
		t.Fatalf("bare name matched %d series, want 2: %+v", len(res.Values), res.Values)
	}
	if res.Values[0].Series != `vgx_test_kinds_total{kind="a"}` {
		t.Errorf("order: %+v", res.Values)
	}
	res, _ = db.Query(Query{Fn: FnLast, Series: `vgx_test_kinds_total{kind="b"}`})
	if len(res.Values) != 1 || float64(res.Values[0].Value) != 2 {
		t.Fatalf("exact key = %+v", res.Values)
	}
}

func TestQuantileOverWindow(t *testing.T) {
	reg, _, _, h := testRegistry()
	db := New(reg, Options{})
	// First window: slow observations only.
	for i := 0; i < 10; i++ {
		h.Observe(5) // (1,10] bucket
	}
	db.Scrape(10)
	// Second window: fast observations.
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // (0,0.1]
	}
	db.Scrape(20)

	// Over the whole retention the increase is dominated by the fast obs.
	res, err := db.Query(Query{Fn: FnQuantile, Series: "vgx_test_seconds", Q: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 {
		t.Fatalf("values = %+v", res.Values)
	}
	got := float64(res.Values[0].Value)
	if got > 0.1 {
		t.Errorf("p50 over both scrapes = %v, want <= 0.1", got)
	}

	// A single-scrape window has no increase: falls back to the all-time
	// cumulative distribution rather than returning nothing.
	res, err = db.Query(Query{Fn: FnQuantile, Series: "vgx_test_seconds", WindowS: 1, Q: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || math.IsNaN(float64(res.Values[0].Value)) {
		t.Fatalf("single-point quantile = %+v, want fallback value", res.Values)
	}
}

func TestQuantileLabelledHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	hv := reg.HistogramVec("vgx_test_lat_seconds", "l", []float64{1, 2}, "kind")
	db := New(reg, Options{})
	hv.With("fast").Observe(0.5)
	hv.With("slow").Observe(1.5)
	db.Scrape(1)

	res, err := db.Query(Query{Fn: FnQuantile, Series: "vgx_test_lat_seconds", Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 {
		t.Fatalf("values = %+v, want one per kind", res.Values)
	}
	if res.Values[0].Series != `vgx_test_lat_seconds{kind="fast"}` {
		t.Errorf("order: %+v", res.Values)
	}
	if v := float64(res.Values[0].Value); v > 1 {
		t.Errorf("fast p100 = %v, want <= 1", v)
	}
	if v := float64(res.Values[1].Value); v <= 1 {
		t.Errorf("slow p100 = %v, want > 1", v)
	}

	// Pinning one label set narrows to that group.
	res, err = db.Query(Query{Fn: FnQuantile, Series: `vgx_test_lat_seconds{kind="slow"}`, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0].Series != `vgx_test_lat_seconds{kind="slow"}` {
		t.Fatalf("pinned = %+v", res.Values)
	}
}

func TestScrapeMonotonicAcrossCalls(t *testing.T) {
	reg, _, g, _ := testRegistry()
	db := New(reg, Options{})
	g.Set(1)
	db.Scrape(10)
	db.Scrape(5) // stale clock: still lands after the first scrape
	res, _ := db.Query(Query{Fn: FnRange, Series: "vgx_test_inflight"})
	pts := res.Range[0].Points
	if len(pts) != 2 || pts[1].T <= pts[0].T {
		t.Fatalf("points = %+v, want strictly increasing", pts)
	}
}

func TestDumpAndJSONDeterminism(t *testing.T) {
	build := func() *DB {
		reg, c, g, h := testRegistry()
		db := New(reg, Options{Capacity: 8})
		for i := 1; i <= 20; i++ {
			c.Add(1)
			g.Set(float64(i % 3))
			h.Observe(float64(i) * 0.01)
			db.Scrape(float64(i))
		}
		return db
	}
	a, b := build(), build()
	ja, _ := json.Marshal(a.Dump(0))
	jb, _ := json.Marshal(b.Dump(0))
	if string(ja) != string(jb) {
		t.Fatal("identical scrape schedules produced different dumps")
	}
	for _, q := range []Query{
		{Fn: FnLast, Series: "vgx_test_jobs_total"},
		{Fn: FnRate, Series: "vgx_test_jobs_total", WindowS: 5},
		{Fn: FnQuantile, Series: "vgx_test_seconds", Q: 0.9},
		{Fn: FnRange, Series: "vgx_test_inflight", WindowS: 3},
	} {
		ra, err := a.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := b.Query(q)
		ba, _ := json.Marshal(ra)
		bb, _ := json.Marshal(rb)
		if string(ba) != string(bb) {
			t.Fatalf("query %+v not byte-identical:\n%s\n%s", q, ba, bb)
		}
	}

	// Dump point cap keeps the newest points.
	d := a.Dump(2)
	for _, s := range d {
		if len(s.Points) > 2 {
			t.Fatalf("dump(2) kept %d points", len(s.Points))
		}
	}
}

func TestValueMarshalsNaNAsNull(t *testing.T) {
	b, err := json.Marshal(SeriesValue{Series: "s", Value: Value(math.NaN())})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"series":"s","value":null}` {
		t.Fatalf("marshal = %s", b)
	}
}

func TestSplitLE(t *testing.T) {
	rest, le, ok := splitLE(`kind="fast",le="0.25"`)
	if !ok || rest != `kind="fast"` || le != 0.25 {
		t.Fatalf("splitLE = %q, %v, %v", rest, le, ok)
	}
	rest, le, ok = splitLE(`le="+Inf"`)
	if !ok || rest != "" || !math.IsInf(le, 1) {
		t.Fatalf("splitLE(+Inf) = %q, %v, %v", rest, le, ok)
	}
	if _, _, ok := splitLE(`kind="fast"`); ok {
		t.Error("splitLE without le succeeded")
	}
}
