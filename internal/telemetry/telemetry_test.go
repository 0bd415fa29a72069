package telemetry

import (
	"strings"
	"testing"
)

// TestExpositionGolden locks the exact text Expose emits for one of each
// metric kind: family ordering by name, series ordering by label
// signature, integer-style float formatting, histogram bucket cumulation
// and the implicit +Inf bucket.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	jobs := r.Counter("vgx_test_jobs_total", "jobs executed")
	jobs.Add(3)
	r.Counter("vgx_test_probes_total", "probes by method", L("method", "fast")).Add(7)
	r.Counter("vgx_test_probes_total", "probes by method", L("method", "baseline")).Add(2)
	g := r.Gauge("vgx_test_inflight", "jobs in flight")
	g.Set(1.5)
	r.GaugeFunc("vgx_test_saturation", "pool saturation", func() float64 { return 0.25 })
	h := r.Histogram("vgx_test_unit", "unit quantity", []float64{0.5, 1})
	h.Observe(0.3)
	h.Observe(0.7)
	h.Observe(4)

	want := strings.Join([]string{
		"# HELP vgx_test_inflight jobs in flight",
		"# TYPE vgx_test_inflight gauge",
		"vgx_test_inflight 1.5",
		"# HELP vgx_test_jobs_total jobs executed",
		"# TYPE vgx_test_jobs_total counter",
		"vgx_test_jobs_total 3",
		"# HELP vgx_test_probes_total probes by method",
		"# TYPE vgx_test_probes_total counter",
		`vgx_test_probes_total{method="baseline"} 2`,
		`vgx_test_probes_total{method="fast"} 7`,
		"# HELP vgx_test_saturation pool saturation",
		"# TYPE vgx_test_saturation gauge",
		"vgx_test_saturation 0.25",
		"# HELP vgx_test_unit unit quantity",
		"# TYPE vgx_test_unit histogram",
		`vgx_test_unit_bucket{le="0.5"} 1`,
		`vgx_test_unit_bucket{le="1"} 2`,
		`vgx_test_unit_bucket{le="+Inf"} 3`,
		"vgx_test_unit_sum 5",
		"vgx_test_unit_count 3",
		"",
	}, "\n")
	if got := r.Expose(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestParseRoundTrip feeds Expose output through the in-repo parser and
// re-renders it with a drop-nothing FilterFamilies: the rebuilt text
// must be byte-identical, proving the parser sees exactly what the
// writer wrote (labels, escapes, histogram suffix attribution).
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("vgx_test_a_total", "plain").Add(41)
	r.Counter("vgx_test_b_total", "labelled", L("kind", `odd"value\with`), L("zz", "2")).Inc()
	h := r.HistogramVec("vgx_test_seconds", "latency", []float64{0.001, 0.1}, "kind")
	h.With("fast").Observe(0.05)
	h.With("slow").Observe(2)
	r.Gauge("vgx_test_level", "level").Set(-3.25)

	text := r.Expose()
	fams, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(fams) != 4 {
		t.Fatalf("parsed %d families, want 4", len(fams))
	}
	if rt := FilterFamilies(text, func(string) bool { return false }); rt != text {
		t.Errorf("round trip mismatch:\n--- rebuilt ---\n%s--- original ---\n%s", rt, text)
	}
}

// TestParsedValues spot-checks the parser's sample decoding: label maps,
// escape handling and the histogram family attribution of _bucket/_sum/
// _count samples.
func TestParsedValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("vgx_test_x_total", "x", L("name", "a\nb\\c\"d")).Add(9)
	h := r.Histogram("vgx_test_lat_seconds", "lat", []float64{1})
	h.Observe(0.5)
	fams, err := Parse(strings.NewReader(r.Expose()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	byName := map[string]*Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	hist, ok := byName["vgx_test_lat_seconds"]
	if !ok || hist.Type != "histogram" {
		t.Fatalf("histogram family missing or mistyped: %+v", hist)
	}
	// le="1", le="+Inf", _sum, _count
	if len(hist.Samples) != 4 {
		t.Fatalf("histogram got %d samples, want 4", len(hist.Samples))
	}
	ctr := byName["vgx_test_x_total"]
	if ctr == nil || len(ctr.Samples) != 1 {
		t.Fatalf("counter family missing: %+v", ctr)
	}
	if got := ctr.Samples[0].Labels["name"]; got != "a\nb\\c\"d" {
		t.Errorf("label value round trip = %q", got)
	}
	if ctr.Samples[0].Value != 9 {
		t.Errorf("counter value = %v, want 9", ctr.Samples[0].Value)
	}
}

// TestRegistrationPanics locks the fail-loud wiring contract: bad names,
// bad label keys, duplicate series, and type or label-key conflicts all
// panic at registration time.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	mustPanic("unprefixed", func() { r.Counter("jobs_total", "h") })
	mustPanic("camelCase", func() { r.Counter("vgx_jobsTotal", "h") })
	mustPanic("bare prefix", func() { r.Counter("vgx", "h") })
	mustPanic("trailing underscore", func() { r.Counter("vgx_jobs_", "h") })
	mustPanic("bad label key", func() { r.Counter("vgx_ok_total", "h", L("Kind", "x")) })

	r.Counter("vgx_dup_total", "h")
	mustPanic("duplicate series", func() { r.Counter("vgx_dup_total", "h") })
	mustPanic("type conflict", func() { r.Gauge("vgx_dup_total", "h") })

	r.Counter("vgx_keys_total", "h", L("kind", "a"))
	r.Counter("vgx_keys_total", "h", L("kind", "b")) // same keys: fine
	mustPanic("label-key conflict", func() { r.Counter("vgx_keys_total", "h", L("method", "a")) })
}

// TestFilterFamilies checks the determinism-test helper drops whole
// families (histogram suffixes included) and keeps the rest verbatim.
func TestFilterFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("vgx_keep_total", "kept").Add(5)
	r.Histogram("vgx_drop_seconds", "dropped", SecondsBuckets).Observe(0.01)
	got := FilterFamilies(r.Expose(), func(name string) bool {
		return strings.HasSuffix(name, "_seconds")
	})
	if strings.Contains(got, "vgx_drop_seconds") {
		t.Errorf("dropped family leaked:\n%s", got)
	}
	if !strings.Contains(got, "vgx_keep_total 5") {
		t.Errorf("kept family missing:\n%s", got)
	}
}

// TestCounterVec checks lazy series creation and Snapshot.
func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("vgx_vec_total", "h", "kind")
	v.With("a").Add(2)
	v.With("b").Inc()
	v.With("a").Inc() // same series
	snap := v.Snapshot()
	if snap["a"] != 3 || snap["b"] != 1 || len(snap) != 2 {
		t.Errorf("snapshot = %v, want a:3 b:1", snap)
	}
}

// TestGaugeAdd exercises the CAS add loop.
func TestGaugeAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("vgx_g", "h")
	g.Set(1)
	g.Add(0.5)
	g.Add(-2)
	if got := g.Value(); got != -0.5 {
		t.Errorf("gauge = %v, want -0.5", got)
	}
}

// TestHistogramStats checks Count/Sum and out-of-range routing to +Inf.
func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vgx_h_probes", "h", ProbeBuckets)
	for _, v := range []float64{5, 100, 1e6} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if h.Sum() != 5+100+1e6 {
		t.Errorf("sum = %v", h.Sum())
	}
}

// TestHotPathAllocs is the alloc regression gate: every operation that
// runs on the probe hot path must be allocation-free.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vgx_alloc_total", "h")
	g := r.Gauge("vgx_alloc_level", "h")
	h := r.Histogram("vgx_alloc_seconds", "h", SecondsBuckets)
	held := r.CounterVec("vgx_alloc_vec_total", "h", "kind").With("fast")

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1.25) }},
		{"Gauge.Add", func() { g.Add(0.5) }},
		{"Histogram.Observe", func() { h.Observe(0.003) }},
		{"held vec counter Inc", func() { held.Inc() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
