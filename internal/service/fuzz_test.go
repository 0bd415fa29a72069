package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/device"
)

// FuzzRequestNormalize fuzzes the canonicalisation every job goes through
// before it is hashed, cached and routed. Arbitrary JSON decoded into a
// Request must never make Normalized panic, and a request it accepts must
// have a hash, a canonical JSON that normalizes to itself, and a hash that
// survives decoding that JSON again.
func FuzzRequestNormalize(f *testing.F) {
	seeds := append(Table1Requests(),
		Request{Kind: KindInfoGain, Sim: &device.DoubleDotSpec{Seed: 7},
			InfoGain: &InfoGainOptions{TargetCI: 0.05, MaxProbes: 300, NoiseEps: 0.1, MinProbes: 4}},
		Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 4, Seed: 3},
			Chain:    &ChainOptions{Methods: chainx.InfoGainLadder(), Budget: 5000},
			InfoGain: &InfoGainOptions{MaxProbes: 200}},
		Request{Kind: KindWindowFind, Sim: &device.DoubleDotSpec{Seed: 2},
			WindowFind: &WindowFindOptions{V1Max: 120, V2Max: 120, Pixels: 64}},
	)
	for _, r := range seeds {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var r Request
		if json.Unmarshal(b, &r) != nil {
			return
		}
		n, err := r.Normalized()
		if err != nil {
			return
		}
		h, err := r.Hash()
		if err != nil {
			t.Fatalf("normalized request has no hash: %v", err)
		}
		canon, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("normalized request does not encode: %v", err)
		}
		n2, err := n.Normalized()
		if err != nil {
			t.Fatalf("normalized request fails to normalize again: %v", err)
		}
		if again, err := json.Marshal(n2); err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("normalization not idempotent:\n%s\n%s (%v)", canon, again, err)
		}
		var r2 Request
		if err := json.Unmarshal(canon, &r2); err != nil {
			t.Fatalf("canonical JSON does not decode: %v\n%s", err, canon)
		}
		if h2, err := r2.Hash(); err != nil || h2 != h {
			t.Fatalf("hash %s changed to %s (%v) across a re-encoding of\n%s", h, h2, err, canon)
		}
	})
}
