package store

// The store benchmarks (recorded in BENCH.txt by scripts/bench.sh):
//
//	BenchmarkJournalAppend   one Put per op with a result-sized payload
//	BenchmarkWarmStartLoad   Open on a journal of 1024 persisted results
//
// Appends are one write syscall each; warm start is one sequential read plus
// frame decoding, so both should stay far below extraction cost (an
// extraction is ~milliseconds of compute plus seconds of virtual dwell).

import (
	"fmt"
	"testing"
)

// benchPayload is sized like a persisted cacheRecord (request + result JSON).
var benchPayload = []byte(fmt.Sprintf(`{"request":{"kind":"fast","benchmark":6},"result":{"kind":"fast","benchmark":6,"hash":"%032d","steepSlope":-8.0123456789,"shallowSlope":-0.1212345678,"a12":0.125,"a21":0.12,"probes":531,"experimentS":26.55,"computeS":0.0042,"scored":true,"success":true}}`, 0))

func BenchmarkJournalAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// A bounded key space models the steady state of a live service — a
	// result cache superseding entries, not an ever-growing key set — so
	// the auto-compactions amortised into the loop rewrite a realistically
	// sized snapshot.
	const keySpace = 4096
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("%032x", i)
	}
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(KindCacheEntry, keys[i%keySpace], benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmStartLoad(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	const entries = 1024
	for i := 0; i < entries; i++ {
		if err := s.Put(KindCacheEntry, fmt.Sprintf("%032x", i), benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if got := ws.Stats().LoadedRecords; got != entries {
			b.Fatalf("loaded %d records, want %d", got, entries)
		}
		ws.Close()
	}
}
