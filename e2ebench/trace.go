package main

// The traced pass's span recorder. Spans are the benchmark's own: each op
// gets a root span, its HTTP round trip a child, and every in-process call
// the benchmark makes into a layer's public entry point on that op's inputs
// another child. Spans stay in memory until the pass ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of one op.
type span struct {
	Op     int32
	Parent int32 // index in the same recorder; -1 for an op's root span
	Name   string
	Start  int64 // ns since the pass started
	End    int64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder holds one client's spans; only that client's goroutine writes it.
type recorder struct {
	client int
	t0     time.Time
	spans  []span
}

func (r *recorder) begin(op int, parent int32, name string) int32 {
	r.spans = append(r.spans, span{Op: int32(op), Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) { r.spans[id].End = int64(time.Since(r.t0)) }

// timed records fn as a span named name under parent.
func (r *recorder) timed(op int, parent int32, name string, fn func()) {
	id := r.begin(op, parent, name)
	fn()
	r.end(id)
}

// aggregate records a child of parent whose duration is the summed time of
// calls too short and too many to span one by one (single probes). It is
// laid out from the parent's start.
func (r *recorder) aggregate(parent int32, name string, d time.Duration) {
	p := r.spans[parent]
	r.spans = append(r.spans, span{Op: p.Op, Parent: parent, Name: name, Start: p.Start, End: p.Start + int64(d)})
}

// traceSummary aggregates a traced pass's spans by name.
type traceSummary struct {
	durs   map[string][]float64 // span durations by name, ns
	self   map[string]float64   // summed self time by name, ns
	opWall float64              // summed op-root durations, ns
	opSelf float64              // summed op-root self time: covered by no layer span
}

func summarize(recs []*recorder) *traceSummary {
	ts := &traceSummary{durs: make(map[string][]float64), self: make(map[string]float64)}
	for _, r := range recs {
		child := make([]float64, len(r.spans))
		for i := range r.spans {
			if p := r.spans[i].Parent; p >= 0 {
				child[p] += float64(r.spans[i].dur())
			}
		}
		for i := range r.spans {
			s := &r.spans[i]
			d := float64(s.dur())
			ts.durs[s.Name] = append(ts.durs[s.Name], d)
			ts.self[s.Name] += d - child[i]
			if s.Parent < 0 {
				ts.opWall += d
				ts.opSelf += d - child[i]
			}
		}
	}
	return ts
}

// medianMS returns the median duration of spans named name, in ms.
func (ts *traceSummary) medianMS(name string) float64 { return median(ts.durs[name]) / 1e6 }

// medianUS returns the median duration of spans named name, in µs.
func (ts *traceSummary) medianUS(name string) float64 { return median(ts.durs[name]) / 1e3 }

// writeSpans writes every span as one JSON line.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type line struct {
		Client  int    `json:"client"`
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Op      int32  `json:"op"`
		Name    string `json:"name"`
		StartNs int64  `json:"startNs"`
		EndNs   int64  `json:"endNs"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for i, s := range r.spans {
			if err := enc.Encode(line{r.client, i, s.Parent, s.Op, s.Name, s.Start, s.End}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
