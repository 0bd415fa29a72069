package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans record where an extraction spent its time as a tree:
//
//	job            — one service job (kind, request hash, request ID)
//	└ pipeline     — one extraction pipeline run (method)
//	  └ pair       — one chain pair extraction (chain jobs only)
//	    └ probes   — the probe batch touching the instrument
//
// Every span carries two durations. WallNS is host wall-clock time —
// what a profiler would see. VirtualNS is simulated instrument time
// (dwell × probes, internal/device's virtual clock) — what the same
// extraction would cost on hardware. The gap between the two is the
// paper's whole argument, so both are first-class.
//
// Spans are cheap but not free (a time.Now per start/end and one
// allocation per span); they are recorded per job / pipeline / pair,
// never per probe. Probe-level information enters as attributes
// (counts) and as the probes leaf span whose virtual duration is the
// accumulated dwell.
//
// Trees are journaled through internal/store as JSON (KindSpan) keyed
// by the request hash, so `vgxreplay -spans` can dump the tree of any
// recorded extraction after the fact.

// An Attr is one key=value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// AttrInt formats an integer attribute.
func AttrInt(k string, v int64) Attr { return Attr{K: k, V: fmt.Sprintf("%d", v)} }

// AttrFloat formats a float attribute with enough precision to round
// trip.
func AttrFloat(k string, v float64) Attr { return Attr{K: k, V: fmt.Sprintf("%g", v)} }

// Span is one node of a timing tree. Exported fields are the wire
// format journaled through internal/store; unexported fields drive live
// recording and are not serialized.
type Span struct {
	Name     string  `json:"name"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	WallNS   int64   `json:"wallNs"`
	VirtNS   int64   `json:"virtNs,omitempty"`
	Children []*Span `json:"children,omitempty"`

	mu    sync.Mutex
	start time.Time
}

// StartSpan begins a root span on the wall clock.
func StartSpan(name string, attrs ...Attr) *Span {
	return &Span{Name: name, Attrs: attrs, start: time.Now()}
}

// Child begins a child span. Safe for concurrent use — chain pairs
// extract in parallel and attach to the same pipeline span.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	c := &Span{Name: name, Attrs: attrs, start: time.Now()}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its wall duration. Idempotent only in the
// sense that calling it twice overwrites the duration; call once.
func (s *Span) End() {
	s.WallNS = time.Since(s.start).Nanoseconds()
}

// SetVirtual records the simulated-instrument duration.
func (s *Span) SetVirtual(d time.Duration) { s.VirtNS = d.Nanoseconds() }

// SetWall overrides the measured wall duration — used when the window
// is known from probe timestamps rather than a Start/End pair.
func (s *Span) SetWall(d time.Duration) { s.WallNS = d.Nanoseconds() }

// AddAttr appends an attribute after creation.
func (s *Span) AddAttr(a Attr) {
	s.mu.Lock()
	s.Attrs = append(s.Attrs, a)
	s.mu.Unlock()
}

// Attr returns the value of the named attribute, or "".
func (s *Span) Attr(k string) string {
	for _, a := range s.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// SortChildren orders children by the given attribute value (numeric
// when possible), making journaled trees deterministic when children
// were appended concurrently.
func (s *Span) SortChildren(attrKey string) {
	s.mu.Lock()
	sort.SliceStable(s.Children, func(i, j int) bool {
		a, b := s.Children[i].Attr(attrKey), s.Children[j].Attr(attrKey)
		if len(a) != len(b) { // numeric strings: shorter sorts first
			return len(a) < len(b)
		}
		return a < b
	})
	s.mu.Unlock()
}

// spanKey carries the active span through a context so deep call sites
// (the pipeline dispatcher, the chain planner glue) can attach children
// without signature changes — and so replay paths, which never put a
// span on their context, record nothing.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sp.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Encode serializes the tree as JSON.
func (s *Span) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeSpan parses a tree serialized by Encode. A null child, which Encode
// never writes, is an error: every walk of the tree would dereference it.
func DecodeSpan(b []byte) (*Span, error) {
	var s Span
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	if !s.whole() {
		return nil, errors.New("telemetry: span tree has a null child")
	}
	return &s, nil
}

// whole reports whether no span in the tree has a nil child.
func (s *Span) whole() bool {
	for _, c := range s.Children {
		if c == nil || !c.whole() {
			return false
		}
	}
	return true
}

// Render writes the tree as an indented listing:
//
//	job wall=1.82ms virtual=21.8s kind=chain hash=ab12cd34
//	  pipeline wall=1.79ms virtual=21.8s method=chain
//	    pair wall=0.61ms virtual=7.3s pair=0 method=fast
//	      probes wall=0.58ms virtual=7.3s probes=728
func (s *Span) Render(w io.Writer) {
	s.render(w, 0)
}

func (s *Span) render(w io.Writer, depth int) {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	fmt.Fprintf(&b, " wall=%s", time.Duration(s.WallNS))
	if s.VirtNS != 0 {
		fmt.Fprintf(&b, " virtual=%s", time.Duration(s.VirtNS))
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(&b, " %s=%s", a.K, a.V)
	}
	b.WriteByte('\n')
	io.WriteString(w, b.String())
	for _, c := range s.Children {
		c.render(w, depth+1)
	}
}
