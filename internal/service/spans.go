package service

import (
	"context"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/telemetry"
)

// Request-scoped IDs ride the context from the HTTP edge (or any caller
// of WithRequestID) down to job execution, where they are stamped on the
// job record and echoed as the req_id attribute of the job's span tree.
// They identify a caller's request across log lines, job views and
// journaled spans; they never enter the request hash, so identical work
// from different callers still coalesces.

type reqIDKey struct{}

// WithRequestID returns ctx carrying a request-scoped ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom returns the request-scoped ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// reqIDSeq numbers generated request IDs. A process-local counter, not a
// random token: deterministic, collision-free within the process, and
// cheap. Callers that need global uniqueness send their own X-Request-ID.
var reqIDSeq atomic.Int64

// nextRequestID generates a request ID for callers that sent none.
func nextRequestID() string {
	return requestID(reqIDSeq.Add(1))
}

// requestID renders the n-th generated request ID, fmt's "req-%06d" for
// n >= 0, in one allocation: fmt would box n once it passes 255.
func requestID(n int64) string {
	var buf [32]byte
	b := append(buf[:0], "req-"...)
	for p := int64(100000); p > 1 && n < p; p /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, n, 10))
}

// liveMetricsKey carries the service metric set to call sites reached
// through free functions (runPipelines) that replay must share. Live
// jobs put it on the context; replay never does, so replayed extractions
// cannot pollute the serving process's counters.
type liveMetricsKey struct{}

func withLiveMetrics(ctx context.Context, m *serviceMetrics) context.Context {
	return context.WithValue(ctx, liveMetricsKey{}, m)
}

func liveMetricsFrom(ctx context.Context) *serviceMetrics {
	m, _ := ctx.Value(liveMetricsKey{}).(*serviceMetrics)
	return m
}

// spansOn reports whether job span trees are recorded and journaled: the
// service must be durable (spans persist through the journal; without one
// there is nowhere to read them back).
func (s *Service) spansOn() bool {
	return s.store != nil
}

// journalSpan persists a finished span tree under the request hash.
// Newest supersedes — re-running a request (cache evicted, session job)
// keeps only the latest tree, mirroring the cache's view of the world.
func (s *Service) journalSpan(hash string, sp *telemetry.Span) {
	s.metrics.spans.Inc()
	b, err := sp.Encode()
	if err == nil {
		err = s.store.Put(store.KindSpan, hash, b)
	}
	if err != nil {
		s.metrics.persistErrs.Inc()
	}
}

// SpanTree returns the journaled span tree for a request hash.
func (s *Service) SpanTree(hash string) (*telemetry.Span, bool) {
	if s.store == nil {
		return nil, false
	}
	data, ok := s.store.Get(store.KindSpan, hash)
	if !ok {
		return nil, false
	}
	sp, err := telemetry.DecodeSpan(data)
	if err != nil {
		return nil, false
	}
	return sp, true
}

// SpanHashes lists the request hashes with journaled span trees, sorted.
func (s *Service) SpanHashes() []string {
	if s.store == nil {
		return nil
	}
	recs := s.store.Records(store.KindSpan)
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Key)
	}
	sort.Strings(out)
	return out
}

// LoadSpans reads every journaled span tree from a data directory
// without starting a service — the vgxreplay -spans path. Returned in
// key-sorted order as (hash, tree) pairs.
func LoadSpans(dataDir string) ([]SpanRecord, error) {
	st, err := store.Open(dataDir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	recs := st.Records(store.KindSpan)
	out := make([]SpanRecord, 0, len(recs))
	for _, r := range recs {
		sp, err := telemetry.DecodeSpan(r.Data)
		if err != nil {
			continue // a future format is skipped, not fatal
		}
		out = append(out, SpanRecord{Hash: r.Key, Span: sp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out, nil
}

// SpanRecord is one journaled span tree keyed by its request hash.
type SpanRecord struct {
	Hash string
	Span *telemetry.Span
}

// shortHash abbreviates a request hash for span attributes and logs.
func shortHash(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// secondsToNS converts the result accounting's float seconds into a
// span duration.
func secondsToNS(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
