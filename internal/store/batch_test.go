package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/fastvg/fastvg/internal/telemetry"
)

// batchRecs is a mixed batch: state records of two kinds plus audit
// records, sized so the frame spans a few hundred bytes.
func batchRecs() []Record {
	return []Record{
		{Kind: KindFleetDevice, Key: "dev-a", Data: bytes.Repeat([]byte("s"), 120)},
		{Kind: KindFleetEvent, Key: "dev-a", Data: []byte(`{"t":300,"kind":"check"}`)},
		{Kind: KindFleetEvent, Key: "dev-a", Data: []byte(`{"t":300,"kind":"recalibrate"}`)},
		{Kind: KindFleetClock, Key: "", Data: []byte(`{"now":300}`)},
	}
}

// TestBatchTruncationRecovery is TestTruncationRecovery for a log whose
// tail is a PutBatch frame: at every byte offset the load holds every
// record before the batch, and either all of the batch's records or none.
func TestBatchTruncationRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put(KindCacheEntry, "pre", []byte("before the batch")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindFleetEvent, "dev-a", []byte(`{"t":0,"kind":"calibrate"}`)); err != nil {
		t.Fatal(err)
	}
	batchStart := s.Stats().LogBytes
	if err := s.PutBatch(batchRecs()...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) <= batchStart {
		t.Fatalf("batch wrote nothing: log %d bytes, batch at %d", len(full), batchStart)
	}

	cdir := t.TempDir()
	path := filepath.Join(cdir, "journal.log")
	for cut := int(batchStart); cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		whole := cut == len(full)
		if d, ok := cs.Get(KindCacheEntry, "pre"); !ok || string(d) != "before the batch" {
			t.Fatalf("cut %d: record before the batch lost", cut)
		}
		evs := cs.Records(KindFleetEvent)
		_, hasDev := cs.Get(KindFleetDevice, "dev-a")
		_, hasClock := cs.Get(KindFleetClock, "")
		if whole {
			want := batchRecs()
			if len(evs) != 3 || !bytes.Equal(evs[1].Data, want[1].Data) || !bytes.Equal(evs[2].Data, want[2].Data) {
				t.Fatalf("cut %d: full batch events = %q", cut, evs)
			}
			if !hasDev || !hasClock {
				t.Fatalf("cut %d: full batch lost state records (device %v, clock %v)", cut, hasDev, hasClock)
			}
		} else if len(evs) != 1 || hasDev || hasClock {
			t.Fatalf("cut %d: torn batch half-applied: %d events, device %v, clock %v", cut, len(evs), hasDev, hasClock)
		}
		if got := cs.Stats().LogBytes; (whole && got != int64(len(full))) || (!whole && got != batchStart) {
			t.Fatalf("cut %d: log resumes at %d", cut, got)
		}
		if err := cs.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// A batch frame that passes its CRC but whose members do not decode is
// corruption: Open treats it as a torn tail, loading none of its members
// and truncating the log back to the frame before it.
func TestBatchUndecodableMemberIsTorn(t *testing.T) {
	good := appendRecordPayload(nil, Record{Kind: KindFleetEvent, Key: "dev-a", Data: []byte("ev")})
	first := append([]byte{byte(len(good))}, good...) // a member that decodes
	for _, tc := range []struct {
		name   string
		second []byte
	}{
		{"member length", []byte{0x7f, byte(KindFleetEvent)}},   // runs past the frame
		{"member key", []byte{3, byte(KindFleetEvent), 9, 'k'}}, // key runs past the member
		{"internal kind", []byte{2, byte(kindEpoch), 0}},
		{"nested batch", []byte{2, byte(kindBatch), 0}},
	} {
		data := append(append([]byte(nil), first...), tc.second...)
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			if err := s.Put(KindFleetEvent, "dev-a", []byte("first")); err != nil {
				t.Fatal(err)
			}
			clean := s.Stats().LogBytes
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			payload := appendRecordPayload(nil, Record{Kind: kindBatch, Data: data})
			f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(AppendFrame(nil, payload)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2 := mustOpen(t, dir, Options{})
			defer s2.Close()
			evs := s2.Records(KindFleetEvent)
			if len(evs) != 1 || string(evs[0].Data) != "first" {
				t.Fatalf("corrupt batch applied: %q", evs)
			}
			st := s2.Stats()
			if st.RecoveredBytes == 0 || st.LogBytes != clean {
				t.Fatalf("corrupt batch not truncated: recovered %d, log %d, want %d", st.RecoveredBytes, st.LogBytes, clean)
			}
		})
	}
}

// PutBatch counts records, not frames: Stats.Appends, the appends counter
// and CompactEvery all advance by the batch size, and compaction rewrites
// the members as ordinary records that reload unchanged.
func TestBatchCountsRecordsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactEvery: 10})
	met := NewMetrics(telemetry.NewRegistry())
	s.SetMetrics(met)
	for i := 0; i < 3; i++ {
		recs := batchRecs()
		recs[1].Data = []byte(fmt.Sprintf("ev-%d-a", i))
		recs[2].Data = []byte(fmt.Sprintf("ev-%d-b", i))
		if err := s.PutBatch(recs...); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Appends != 12 || met.Appends.Value() != 12 || st.Compactions != 1 {
		t.Fatalf("after 3 batches of 4: appends %d (counter %d), compactions %d; want 12, 1",
			st.Appends, met.Appends.Value(), st.Compactions)
	}
	if err := s.PutBatch(); err != nil || s.Stats().Appends != 12 {
		t.Fatalf("empty batch: err %v, appends %d", err, s.Stats().Appends)
	}
	if err := s.PutBatch(Record{Kind: kindTombstone, Data: []byte{byte(KindCacheEntry)}}); err == nil {
		t.Fatal("batch of an internal kind accepted")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "journal.snap"))
	if err != nil {
		t.Fatal(err)
	}
	rest, err := CheckFileHeader(snap, JournalMagic)
	if err != nil {
		t.Fatal(err)
	}
	for {
		payload, next, err := NextFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		if payload == nil {
			break
		}
		if rec, _ := decodeRecordPayload(payload); rec.Kind == kindBatch {
			t.Fatal("snapshot holds a batch frame")
		}
		rest = next
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	evs := s2.Records(KindFleetEvent)
	if len(evs) != 6 || string(evs[0].Data) != "ev-0-a" || string(evs[5].Data) != "ev-2-b" {
		t.Fatalf("events after compaction = %q", evs)
	}
	if got := s2.Stats().LoadedRecords; got != 8 {
		t.Fatalf("LoadedRecords = %d, want 8 (device, clock, 6 events)", got)
	}
}
