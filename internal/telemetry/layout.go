package telemetry

import "sort"

// The registry layout: every sample the registry exposes, in exposition
// order — families by name, series by label signature, a histogram's
// buckets by bound, then +Inf, _sum and _count. Sample identities only
// change when a series is registered, so the layout is built once per
// registration generation and every read after that (Expose, Snapshot,
// the tsdb's values-only scrape) walks it and the metrics' value
// readers, without sorting, concatenating keys or looking anything up.

// sampleInfo is one layout entry: a sample's identity without its value.
type sampleInfo struct {
	family string
	typ    string
	name   string // family name plus histogram suffix
	sig    string // full label signature, including a bucket's le pair
	key    string // name{sig}, or name when unlabelled
}

// familySpan is one family's slice of the layout: its HELP and TYPE
// lines, pre-rendered, and the end of its samples.
type familySpan struct {
	header string
	end    int // samples[previous span's end:end] belong to this family
}

type layout struct {
	gen      uint64
	samples  []sampleInfo
	families []familySpan
	series   []metric // value readers, in layout order
	textSize int      // length of the last exposition, to size the next
}

// layoutLocked returns the layout for the current generation, building
// it when a registration has moved the generation since the last read.
// r.mu must be held.
func (r *Registry) layoutLocked() *layout {
	if r.lay != nil && r.lay.gen == r.gen {
		return r.lay
	}
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)

	lay := &layout{gen: r.gen, families: make([]familySpan, 0, len(names))}
	if r.lay != nil {
		lay.textSize = r.lay.textSize
	}
	add := func(f *family, name, sig string) {
		key := name
		if sig != "" {
			key = name + "{" + sig + "}"
		}
		lay.samples = append(lay.samples, sampleInfo{family: f.name, typ: f.typ, name: name, sig: sig, key: key})
	}
	for _, n := range names {
		f := r.families[n]
		sigs := make([]string, 0, len(f.series))
		for s := range f.series {
			sigs = append(sigs, s)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			m := f.series[sig]
			lay.series = append(lay.series, m)
			h, ok := m.(*Histogram)
			if !ok {
				add(f, f.name, sig)
				continue
			}
			for _, bound := range h.bounds {
				add(f, f.name+"_bucket", joinSig(sig, `le="`+formatValue(bound)+`"`))
			}
			add(f, f.name+"_bucket", joinSig(sig, `le="+Inf"`))
			add(f, f.name+"_sum", sig)
			add(f, f.name+"_count", sig)
		}
		lay.families = append(lay.families, familySpan{
			header: "# HELP " + f.name + " " + escapeHelp(f.help) + "\n# TYPE " + f.name + " " + f.typ + "\n",
			end:    len(lay.samples),
		})
	}
	r.lay = lay
	return lay
}

// values appends every layout sample's current value to dst.
// GaugeFunc readers run here, under r.mu, in layout order.
func (lay *layout) values(dst []float64) []float64 {
	for _, m := range lay.series {
		dst = m.appendValues(dst)
	}
	return dst
}

// Values appends the current value of every registered sample to dst, in
// Snapshot order, and returns the registry generation those values
// belong to. The generation moves on every registration, so a caller
// that planned against a Snapshot taken at the same generation can pair
// values with samples by index — the tsdb's allocation-free scrape.
func (r *Registry) Values(dst []float64) ([]float64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lay := r.layoutLocked()
	return lay.values(dst), lay.gen
}
