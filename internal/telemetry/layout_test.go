package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Reference renderers: the per-series expose/scrape code Expose and
// Snapshot ran before the registry layout, kept here to pin the layout's
// output to it byte for byte. Callers hold r.mu, as the originals did.

func refWriteSample(b *strings.Builder, name, sig string, v float64) {
	b.WriteString(name)
	if sig != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func refExposeSeries(b *strings.Builder, m metric, name, sig string) {
	switch m := m.(type) {
	case *Counter:
		refWriteSample(b, name, sig, float64(m.v.Load()))
	case *Gauge:
		refWriteSample(b, name, sig, m.Value())
	case funcGauge:
		refWriteSample(b, name, sig, m.fn())
	case *Histogram:
		var cum uint64
		for i, bound := range m.bounds {
			cum += m.counts[i].Load()
			le := "le=\"" + formatValue(bound) + "\""
			refWriteSample(b, name+"_bucket", joinSig(sig, le), float64(cum))
		}
		cum += m.inf.Load()
		refWriteSample(b, name+"_bucket", joinSig(sig, `le="+Inf"`), float64(cum))
		refWriteSample(b, name+"_sum", sig, m.Sum())
		refWriteSample(b, name+"_count", sig, float64(m.count.Load()))
	}
}

func refScrapeSeries(m metric, emit func(suffix, extra string, v float64)) {
	switch m := m.(type) {
	case *Counter:
		emit("", "", float64(m.v.Load()))
	case *Gauge:
		emit("", "", m.Value())
	case funcGauge:
		emit("", "", m.fn())
	case *Histogram:
		var cum uint64
		for i, bound := range m.bounds {
			cum += m.counts[i].Load()
			emit("_bucket", "le=\""+formatValue(bound)+"\"", float64(cum))
		}
		cum += m.inf.Load()
		emit("_bucket", `le="+Inf"`, float64(cum))
		emit("_sum", "", m.Sum())
		emit("_count", "", float64(m.count.Load()))
	}
}

func refSortedNames(r *Registry) []string {
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func refSortedSigs(f *family) []string {
	sigs := make([]string, 0, len(f.series))
	for s := range f.series {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	return sigs
}

func refExpose(r *Registry) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, n := range refSortedNames(r) {
		f := r.families[n]
		b.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
		b.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		for _, s := range refSortedSigs(f) {
			refExposeSeries(&b, f.series[s], f.name, s)
		}
	}
	return b.String()
}

func refSnapshot(r *Registry) []SamplePoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SamplePoint
	for _, n := range refSortedNames(r) {
		f := r.families[n]
		for _, sig := range refSortedSigs(f) {
			refScrapeSeries(f.series[sig], func(suffix, extra string, v float64) {
				fullSig := sig
				if extra != "" {
					fullSig = joinSig(sig, extra)
				}
				out = append(out, SamplePoint{Family: f.name, Type: f.typ, Name: f.name + suffix, Sig: fullSig, Value: v})
			})
		}
	}
	return out
}

// Random registrations interleaved with observations: after every step
// Snapshot and Expose equal the reference renderers byte for byte, and
// GaugeFunc readers run in the same order.
func TestLayoutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	values := []string{"a", "b", `back\slash`, `quo"te`, "new\nline", "", `\"` + "\n", "z"}
	kinds := []string{"counter", "intgauge", "gauge", "func", "histogram", "countervec", "histogramvec"}
	floats := []float64{0, 1, -2.5, 0.001, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), 3}

	r := NewRegistry()
	type fam struct {
		kind string
		keys []string
	}
	fams := map[string]fam{}
	sigs := map[string]bool{}
	var counters []*Counter
	var gauges []*Gauge
	var hists []*Histogram
	var cvecs []*CounterVec
	var hvecs []*HistogramVec
	var calls []string // GaugeFunc invocation log
	funcVals := map[string]float64{}
	var funcIDs []string

	for step := 0; step < 600; step++ {
		if rng.Intn(3) == 0 {
			// Register a series, possibly into an existing family.
			name := fmt.Sprintf("vgx_layout_f%d", rng.Intn(12))
			f, ok := fams[name]
			if !ok {
				f = fam{kind: kinds[rng.Intn(len(kinds))]}
				switch f.kind {
				case "countervec", "histogramvec":
					f.keys = []string{"kind"}
				default:
					for _, k := range []string{"zone", "method", "le_x"} {
						if rng.Intn(2) == 0 {
							f.keys = append(f.keys, k)
						}
					}
				}
				fams[name] = f
			}
			var labels []Label
			for _, k := range f.keys {
				labels = append(labels, L(k, values[rng.Intn(len(values))]))
			}
			rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
			sig := name + "|" + signature(labels)
			switch f.kind {
			case "countervec":
				if !ok {
					cvecs = append(cvecs, r.CounterVec(name, "a vec", "kind"))
				}
				for _, v := range cvecs {
					if v.name == name {
						v.With(labels[0].Value).Add(int64(rng.Intn(5)))
					}
				}
				continue
			case "histogramvec":
				if !ok {
					hvecs = append(hvecs, r.HistogramVec(name, "a\\vec\nhelp", []float64{10, 1, 0.5}, "kind"))
				}
				for _, v := range hvecs {
					if v.name == name {
						v.With(labels[0].Value).Observe(floats[rng.Intn(len(floats))])
					}
				}
				continue
			}
			if sigs[sig] {
				continue
			}
			sigs[sig] = true
			switch f.kind {
			case "counter":
				counters = append(counters, r.Counter(name, "c", labels...))
			case "intgauge":
				counters = append(counters, r.IntGauge(name, "ig", labels...))
			case "gauge":
				gauges = append(gauges, r.Gauge(name, "g", labels...))
			case "func":
				id := sig
				funcIDs = append(funcIDs, id)
				funcVals[id] = floats[rng.Intn(len(floats))]
				r.GaugeFunc(name, "fn", func() float64 {
					calls = append(calls, id)
					return funcVals[id]
				}, labels...)
			case "histogram":
				hists = append(hists, r.Histogram(name, "h", []float64{2, 0.25, 1}, labels...))
			}
		} else {
			// Observe.
			switch rng.Intn(4) {
			case 0:
				if len(counters) > 0 {
					counters[rng.Intn(len(counters))].Add(int64(rng.Intn(100) - 10))
				}
			case 1:
				if len(gauges) > 0 {
					gauges[rng.Intn(len(gauges))].Set(floats[rng.Intn(len(floats))])
				}
			case 2:
				if len(hists) > 0 {
					hists[rng.Intn(len(hists))].Observe(floats[rng.Intn(len(floats))])
				}
			case 3:
				if len(funcIDs) > 0 {
					funcVals[funcIDs[rng.Intn(len(funcIDs))]] = floats[rng.Intn(len(floats))]
				}
			}
		}

		calls = calls[:0]
		want := refExpose(r)
		wantCalls := append([]string(nil), calls...)
		calls = calls[:0]
		if got := r.Expose(); got != want {
			t.Fatalf("step %d: Expose diverged\n--- got ---\n%s--- want ---\n%s", step, got, want)
		}
		if strings.Join(calls, "\x00") != strings.Join(wantCalls, "\x00") {
			t.Fatalf("step %d: GaugeFunc order %q, want %q", step, calls, wantCalls)
		}
		wantSnap := refSnapshot(r)
		gotSnap := r.Snapshot()
		if len(gotSnap) != len(wantSnap) {
			t.Fatalf("step %d: Snapshot has %d samples, want %d", step, len(gotSnap), len(wantSnap))
		}
		vals, _ := r.Values(nil)
		for i := range wantSnap {
			g, w := gotSnap[i], wantSnap[i]
			if g.Family != w.Family || g.Type != w.Type || g.Name != w.Name || g.Sig != w.Sig ||
				math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Fatalf("step %d: Snapshot[%d] = %+v, want %+v", step, i, g, w)
			}
			if math.Float64bits(vals[i]) != math.Float64bits(w.Value) {
				t.Fatalf("step %d: Values[%d] = %v, want %v", step, i, vals[i], w.Value)
			}
		}
	}
	if len(r.Names()) < 8 {
		t.Fatalf("only %d families registered; the walk is too thin", len(r.Names()))
	}
}

// Values reports the generation its values belong to: it moves on every
// registration and only then.
func TestValuesGeneration(t *testing.T) {
	r := NewRegistry()
	_, g0 := r.Values(nil)
	c := r.Counter("vgx_gen_total", "c")
	vals, g1 := r.Values(nil)
	if g1 == g0 || len(vals) != 1 {
		t.Fatalf("after a registration: gen %d -> %d, values %v", g0, g1, vals)
	}
	c.Inc()
	r.Expose()
	if vals, g := r.Values(nil); g != g1 || vals[0] != 1 {
		t.Fatalf("after an observation: gen %d -> %d, values %v", g1, g, vals)
	}
	r.Histogram("vgx_gen_seconds", "h", []float64{1})
	if vals, g := r.Values(nil); g == g1 || len(vals) != 5 {
		t.Fatalf("after a histogram: gen %d -> %d, values %v", g1, g, vals)
	}
}
