// Package scratch recycles the buffers an extraction uses internally and
// never returns, so that they serve the next extraction instead of
// becoming garbage. Buffers wait in sync.Pools, which the collector
// empties, so what is kept is bounded by what recently running
// extractions used.
package scratch

import "sync"

// Slices is a pool of slices of T. The zero value is ready to use.
type Slices[T any] struct{ p sync.Pool }

// Get returns a slice of length n, in the memory of a recycled one when it
// is large enough. Its contents are arbitrary: the caller writes every
// element before reading it.
func (s *Slices[T]) Get(n int) *[]T {
	b, _ := s.p.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	if cap(*b) < n {
		*b = make([]T, n)
	}
	*b = (*b)[:n]
	return b
}

// Put hands b back for a later Get. Nothing may use *b afterwards.
func (s *Slices[T]) Put(b *[]T) { s.p.Put(b) }

// Zeroed returns a zeroed slice of length n, in buf's memory when it is
// large enough.
func Zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
