package telemetry

import "strings"

// ContentType is the Prometheus text exposition format version this
// package emits.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Expose renders every registered family as Prometheus text. Families
// are ordered by name and series by label signature, so output for the
// same logical state is byte-identical across processes — the property
// the worker-count determinism test locks in.
func (r *Registry) Expose() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	lay := r.layoutLocked()
	r.scratch = lay.values(r.scratch[:0])

	var b strings.Builder
	b.Grow(lay.textSize)
	var num [32]byte
	i := 0
	for _, f := range lay.families {
		b.WriteString(f.header)
		for ; i < f.end; i++ {
			b.WriteString(lay.samples[i].key)
			b.WriteByte(' ')
			b.Write(appendValue(num[:0], r.scratch[i]))
			b.WriteByte('\n')
		}
	}
	lay.textSize = b.Len()
	return b.String()
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(h)
}
