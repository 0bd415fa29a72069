package service

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/fastvg/fastvg/internal/device"
)

// TestBatchMemoBounds: the batch memo holds at most batchMemoBodies
// bodies, dropping the least recently used, and refuses a body whose
// prepared requests exceed batchMemoEntryBytes of canonical JSON or that
// has a request without a prepared form.
func TestBatchMemoBounds(t *testing.T) {
	m := newBatchMemo()
	sum := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte(fmt.Sprint(i))) }
	one := []Request{{Kind: KindFast, Benchmark: 6}}
	for i := 0; i <= batchMemoBodies; i++ {
		if i == batchMemoBodies {
			m.get(sum(0)) // the first body is used again before the memo overflows
		}
		m.admit(sum(i), one)
	}
	if n := m.ll.Len(); n != batchMemoBodies {
		t.Fatalf("memo holds %d bodies, want %d", n, batchMemoBodies)
	}
	if _, ok := m.get(sum(0)); !ok {
		t.Fatal("recently used body was dropped")
	}
	if _, ok := m.get(sum(1)); ok {
		t.Fatal("least recently used body was kept")
	}
	reqs, _ := m.get(sum(2))
	if want, _ := one[0].Hash(); len(reqs) != 1 || reqs[0].canon == nil || reqs[0].canon.hash != want {
		t.Fatalf("memoised %+v, want the prepared request with hash %s", reqs, want)
	}

	// A 64-dot chain expands to 63 pair windows: three of them pass the
	// entry bound.
	chain := Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 64}}
	for _, tc := range []struct {
		name string
		reqs []Request
		ok   bool
	}{
		{"one chain", []Request{chain}, true},
		{"three chains", []Request{chain, chain, chain}, false},
		{"session", []Request{one[0], {Kind: KindFast, Session: "sess-0001"}}, false},
		{"invalid", []Request{{Kind: "nope", Benchmark: 1}}, false},
	} {
		s := sha256.Sum256([]byte(tc.name))
		m.admit(s, tc.reqs)
		if _, ok := m.get(s); ok != tc.ok {
			t.Errorf("%s: memoised %v, want %v", tc.name, ok, tc.ok)
		}
	}
}
