package store

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"testing"
)

// twoStepSnapshot is the snapshot compactLocked writes, encoded the way it
// was before frames were encoded in place: each record's payload in a
// fresh buffer, then copied into the snapshot through AppendFrame. Caller
// holds s.mu.
func twoStepSnapshot(s *Store, epoch uint64) []byte {
	buf := AppendFileHeader(nil, JournalMagic)
	buf = AppendFrame(buf, epochRecord(epoch))
	kinds := make([]Kind, 0, len(s.kinds))
	for k := range s.kinds {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		ents := s.kinds[k].entries
		if k.Audit() && len(ents) > s.opt.AuditCap {
			ents = ents[len(ents)-s.opt.AuditCap:]
		}
		for _, e := range ents {
			if !e.dead {
				buf = AppendFrame(buf, appendRecordPayload(nil, e.rec))
			}
		}
	}
	return buf
}

// TestCompactSnapshotBytes: the in-place frame encoding writes exactly the
// bytes of the two-step encoder, over state and audit kinds, superseded
// and deleted keys, empty keys and data, and audit rings past their cap —
// on a first compaction and on a second one after more writes.
func TestCompactSnapshotBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{AuditCap: 5, CompactEvery: 1 << 20})
	defer s.Close()
	put := func(k Kind, key string, data []byte) {
		t.Helper()
		if err := s.Put(k, key, data); err != nil {
			t.Fatal(err)
		}
	}
	check := func(round int) {
		t.Helper()
		s.mu.Lock()
		want := twoStepSnapshot(s, s.epoch+1)
		s.mu.Unlock()
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(s.snapPath())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: snapshot differs from the two-step encoding (%d bytes, want %d)", round, len(got), len(want))
		}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("k%03d", (i*7+round)%23)
			put(KindCacheEntry, key, bytes.Repeat([]byte{byte(i)}, i*37%300))
			put(KindFleetEvent, key, []byte(key))
			if i%3 == 0 {
				put(KindSurrogateModel, key, bytes.Repeat([]byte{0xab}, 200+i))
			}
			if i%5 == 0 {
				put(KindAlertEvent, "", nil)
			}
			if i%4 == 1 {
				if err := s.Delete(KindCacheEntry, fmt.Sprintf("k%03d", i%23)); err != nil {
					t.Fatal(err)
				}
			}
		}
		put(KindFleetClock, "", []byte("clock"))
		put(KindChainPair, string(bytes.Repeat([]byte{'p'}, 200)), []byte{})
		check(round)
	}
}
