package telemetry

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzExpositionParse fuzzes the exposition parser the shard router
// merges per-shard scrapes with. Whatever Parse accepts, RenderFamilies
// must render as text that Parse accepts again, with the same families:
// names, help, types and samples in order, labels and values included.
func FuzzExpositionParse(f *testing.F) {
	r := NewRegistry()
	r.Counter("vgx_fuzz_jobs_total", "jobs executed").Add(3)
	r.Counter("vgx_fuzz_probes_total", "probes by method", L("method", "fast")).Add(7)
	r.Gauge("vgx_fuzz_level", "a \\ help\nline", L("path", "a\\b\"c\nd")).Set(-1.5)
	r.GaugeFunc("vgx_fuzz_fn", "f", func() float64 { return math.Inf(1) })
	r.Histogram("vgx_fuzz_seconds", "latency", []float64{0.5, 1}, L("kind", "x")).Observe(0.7)
	f.Add(r.Expose())
	for _, seed := range []string{
		"vgx_x 1\n",
		"# TYPE vgx_y gauge\nvgx_y{} 1\n",
		"# TYPE vgx_h_seconds histogram\nvgx_h_seconds_count 1\nvgx_h_seconds0 2\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fams, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		out := RenderFamilies(fams)
		again, err := Parse(strings.NewReader(out))
		if err != nil {
			t.Fatalf("rendered text does not parse: %v\n--- input ---\n%q\n--- rendered ---\n%q", err, text, out)
		}
		if !sameFamilies(fams, again) {
			t.Fatalf("families changed across render\n--- input ---\n%q\n--- rendered ---\n%q", text, out)
		}
	})
}

func sameFamilies(a, b []*Family) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Name != y.Name || x.Help != y.Help || x.Type != y.Type || len(x.Samples) != len(y.Samples) {
			return false
		}
		for j := range x.Samples {
			s, u := x.Samples[j], y.Samples[j]
			if s.Name != u.Name || (s.Labels == nil) != (u.Labels == nil) || len(s.Labels) != len(u.Labels) {
				return false
			}
			for k, v := range s.Labels {
				if w, ok := u.Labels[k]; !ok || w != v {
					return false
				}
			}
			if math.Float64bits(s.Value) != math.Float64bits(u.Value) && !(math.IsNaN(s.Value) && math.IsNaN(u.Value)) {
				return false
			}
		}
	}
	return true
}

// The inputs FuzzExpositionParse broke the round trip with are rejected
// or normalised: untyped families, empty label blocks, names that merely
// extend the current family's name, and invalid names.
func TestParseStrictness(t *testing.T) {
	for _, bad := range []string{
		"vgx_x 1\n",                                // sample with no TYPE line
		"# HELP vgx_x help\nvgx_x 1\n",             // HELP but no TYPE
		"# HELP vgx_x help\n",                      // family without a TYPE line
		"# TYPE vgx_x gauge\nvgx_y 1\n",            // sample of an undeclared family
		"# TYPE  gauge\n",                          // TYPE without a name
		"# TYPE vgx-x gauge\n",                     // invalid metric name
		"# TYPE vgx_x gauge\nvgx_x{a b=\"c\"} 1\n", // invalid label name
		"# TYPE vgx_x gauge\n{a=\"b\"} 1\n",        // sample without a name
		"# TYPE vgx_h_seconds histogram\nvgx_h_seconds0 2\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}

	fams, err := Parse(strings.NewReader("# TYPE vgx_y gauge\nvgx_y{} 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if l := fams[0].Samples[0].Labels; l != nil {
		t.Errorf("vgx_y{} labels = %#v, want nil", l)
	}

	// A name that merely extends the current family's name is not one of
	// its samples.
	fams, err = Parse(strings.NewReader("# TYPE vgx_h_seconds0 gauge\n# TYPE vgx_h_seconds histogram\nvgx_h_seconds_sum 1\nvgx_h_seconds0 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 || len(fams[0].Samples) != 1 || fams[0].Samples[0].Name != "vgx_h_seconds0" ||
		len(fams[1].Samples) != 1 || fams[1].Samples[0].Name != "vgx_h_seconds_sum" {
		t.Errorf("families = %+v %+v", fams[0], fams[1])
	}
}

// FuzzSpanDecode fuzzes the span-tree decoder vgxreplay -spans runs on
// journaled KindSpan records. Whatever DecodeSpan accepts must render
// without panicking, and its encoding must be a fixed point: decoding and
// re-encoding it gives the same bytes.
func FuzzSpanDecode(f *testing.F) {
	root := StartSpan("job", Attr{K: "kind", V: "chain"}, AttrInt("probes", 3))
	pipe := root.Child("pipeline", Attr{K: "method", V: "fast"})
	pipe.Child("probes").SetVirtual(7300 * time.Millisecond)
	pipe.End()
	root.End()
	enc, err := root.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	for _, seed := range []string{
		`{}`, `null`, `{"name":"x","children":[null]}`,
		`{"name":"a\u0000b","attrs":[{"k":"\ud800","v":""}],"wallNs":-1,"virtNs":9223372036854775807}`,
		`{"name":"x","children":[{"children":[{}]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpan(data)
		if err != nil {
			return
		}
		s.Render(io.Discard)
		first, err := s.Encode()
		if err != nil {
			t.Fatalf("decoded tree does not encode: %v\n--- input ---\n%q", err, data)
		}
		again, err := DecodeSpan(first)
		if err != nil {
			t.Fatalf("encoding does not decode: %v\n--- encoding ---\n%q", err, first)
		}
		second, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not stable\n--- first ---\n%q\n--- second ---\n%q", first, second)
		}
	})
}
