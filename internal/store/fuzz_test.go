package store

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode drives the frame + record decoder with arbitrary bytes:
// it must never panic, and every record it does accept — including each
// member of an accepted batch — must survive an encode → decode round trip
// unchanged (the codec is stable on the accepted set; byte-level
// comparison would reject non-minimal varints the decoder legitimately
// accepts).
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, appendRecordPayload(nil, Record{Kind: KindCacheEntry, Key: "k", Data: []byte("v")})))
	f.Add(AppendFrame(nil, []byte{}))
	long := AppendFrame(nil, appendRecordPayload(nil, Record{Kind: KindFleetEvent, Key: "dev-001", Data: bytes.Repeat([]byte("x"), 300)}))
	f.Add(append(long, 0xde, 0xad))
	f.Add(AppendFrame(nil, appendBatchPayload(nil, []Record{
		{Kind: KindFleetDevice, Key: "dev-001", Data: []byte(`{"id":"dev-001"}`)},
		{Kind: KindFleetEvent, Key: "dev-001", Data: []byte(`{"t":300}`)},
		{Kind: KindFleetClock, Key: "", Data: nil},
	})))
	f.Fuzz(func(t *testing.T, b []byte) {
		rest := b
		for {
			payload, next, err := NextFrame(rest)
			if err != nil || payload == nil {
				return
			}
			rec, derr := decodeRecordPayload(payload)
			if derr == nil {
				re, _, rerr := NextFrame(AppendFrame(nil, appendRecordPayload(nil, rec)))
				if rerr != nil {
					t.Fatalf("re-encoded frame rejected: %v", rerr)
				}
				rec2, derr2 := decodeRecordPayload(re)
				if derr2 != nil || rec2.Kind != rec.Kind || rec2.Key != rec.Key || !bytes.Equal(rec2.Data, rec.Data) {
					t.Fatalf("round trip changed record: %+v -> %+v (%v)", rec, rec2, derr2)
				}
				if rec.Kind == kindBatch {
					checkBatchRoundTrip(t, rec.Data)
				}
			}
			rest = next
		}
	})
}

// checkBatchRoundTrip decodes a batch record's members and, when they are
// accepted, re-encodes them as a batch that must decode to the same
// members.
func checkBatchRoundTrip(t *testing.T, data []byte) {
	members, err := decodeBatch(data)
	if err != nil {
		return
	}
	re, err := decodeRecordPayload(appendBatchPayload(nil, members))
	if err != nil || re.Kind != kindBatch {
		t.Fatalf("re-encoded batch rejected: %v", err)
	}
	members2, err := decodeBatch(re.Data)
	if err != nil || len(members2) != len(members) {
		t.Fatalf("re-encoded batch: %d of %d members (%v)", len(members2), len(members), err)
	}
	for i, m := range members {
		m2 := members2[i]
		if m2.Kind != m.Kind || m2.Key != m.Key || !bytes.Equal(m2.Data, m.Data) {
			t.Fatalf("round trip changed member %d: %+v -> %+v", i, m, m2)
		}
	}
}
