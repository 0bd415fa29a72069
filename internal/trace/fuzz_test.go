package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/fastvg/fastvg/internal/csd"
)

// FuzzTraceDecode feeds arbitrary bytes to the trace decoder, which reads
// files from disk: Decode must never panic, and every trace it accepts must
// have a stable encoding (decode → encode → decode → encode reproduces the
// same bytes; comparing against the input would wrongly reject frame
// splits and non-minimal varints the decoder legitimately accepts).
func FuzzTraceDecode(f *testing.F) {
	pair := 2
	meta := Meta{
		Hash:      "0123456789abcdef",
		Request:   json.RawMessage(`{"kind":"chain"}`),
		Result:    json.RawMessage(`{"pair":2,"probes":3}`),
		Window:    csd.NewSquareWindow(0, 0, 50, 16),
		Truth:     &Truth{Steep: -8, Shallow: -0.12},
		Pair:      &pair,
		Surrogate: &SurrogateMeta{Model: []byte{1, 2, 3}, Threshold: 0.5, Learn: true},
	}
	samples := []Sample{
		{V: []float64{1.5, 2.5}, I: 0.25, Unique: true, VirtualNS: 50e6},
		{V: []float64{1.5, 2.5, -3, 4}, I: -1, VirtualNS: 50e6},
		{V: []float64{}, I: 7, Unique: true, VirtualNS: 1 << 40},
	}
	seed, err := Encode(meta, samples)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	bare, err := Encode(Meta{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bare)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		meta, samples, err := Decode(b)
		if err != nil {
			return
		}
		enc, err := Encode(meta, samples)
		if err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		meta2, samples2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		enc2, err := Encode(meta2, samples2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc2, enc) {
			t.Fatal("encoding not stable across a decode round trip")
		}
	})
}
