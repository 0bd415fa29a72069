package telemetry

// SamplePoint is one flattened registry sample at scrape time — the
// value-level twin of one exposition line. Family is the registered
// metric name; Name adds the histogram suffix (_bucket/_sum/_count)
// when the family is a histogram; Sig is the full label signature
// including the bucket's le pair.
type SamplePoint struct {
	Family string
	Type   string // "counter" | "gauge" | "histogram"
	Name   string
	Sig    string
	Value  float64
}

// Key renders the sample's stable identity, `name{sig}` — the series
// key the tsdb stores points under.
func (p SamplePoint) Key() string {
	if p.Sig == "" {
		return p.Name
	}
	return p.Name + "{" + p.Sig + "}"
}

// Snapshot samples every registered series as values, in the same
// deterministic order exposition renders them (families by name, series
// by label signature, histogram buckets by bound). It is the planning
// source for internal/tsdb, which pairs later Values reads with these
// samples by index: one call, one consistent-enough cut of the registry
// (each series is read atomically; the cut across series is not a
// transaction, exactly like a Prometheus scrape). GaugeFunc readers run
// under the registry mutex, as during exposition.
func (r *Registry) Snapshot() []SamplePoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	lay := r.layoutLocked()
	r.scratch = lay.values(r.scratch[:0])
	out := make([]SamplePoint, len(lay.samples))
	for i, s := range lay.samples {
		out[i] = SamplePoint{Family: s.family, Type: s.typ, Name: s.name, Sig: s.sig, Value: r.scratch[i]}
	}
	return out
}
