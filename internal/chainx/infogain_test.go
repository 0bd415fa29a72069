package chainx

import (
	"encoding/json"
	"testing"

	"github.com/fastvg/fastvg/internal/infogain"
	"github.com/fastvg/fastvg/internal/method"
)

// TestInfoGainBitIdenticalAcrossWorkers extends the determinism contract to
// the active scheduler: an infogain-first ladder extracts to byte-identical
// pair results and chain at any worker count.
func TestInfoGainBitIdenticalAcrossWorkers(t *testing.T) {
	spec := testSpec(5)
	cfg := Config{Methods: InfoGainLadder()}
	var want []byte
	var wantChain []float64
	for _, workers := range []int{1, 2, 4, 8} {
		res := extractSpec(t, spec, workers, cfg)
		if res.Chain == nil {
			t.Fatalf("workers=%d: no composed chain; pairs: %+v", workers, res.Pairs)
		}
		for i, p := range res.Pairs {
			if p.Method != MethodInfoGain {
				t.Errorf("workers=%d pair %d method %q, want infogain on first attempt (err %q)",
					workers, i, p.Method, p.Error)
			}
		}
		got, err := json.Marshal(res.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		dense := append([]float64(nil), res.Chain.Dense()...)
		if want == nil {
			want, wantChain = got, dense
			continue
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: pair results differ from workers=1", workers)
		}
		for i := range dense {
			if dense[i] != wantChain[i] {
				t.Errorf("workers=%d: chain matrix bit-differs at %d", workers, i)
				break
			}
		}
	}
}

// TestInfoGainLadderFallback: an unreachable CI target makes the infogain
// rung fail deterministically (ErrNoConverge is a pipeline outcome, not a
// transport error), so the pair escalates to fast with both attempts
// recorded.
func TestInfoGainLadderFallback(t *testing.T) {
	spec := testSpec(3)
	cfg := Config{
		Methods: InfoGainLadder(),
		Options: method.Options{InfoGain: infogain.Config{TargetCI: 1e-9, MaxProbes: 40}},
	}
	res := extractSpec(t, spec, 2, cfg)
	if res.Chain == nil {
		t.Fatalf("no chain despite escalation; pairs: %+v", res.Pairs)
	}
	for i, p := range res.Pairs {
		if p.Method != MethodFast {
			t.Errorf("pair %d method %q, want fast after infogain failed", i, p.Method)
		}
		if len(p.Attempts) < 2 {
			t.Fatalf("pair %d has %d attempts, want >= 2", i, len(p.Attempts))
		}
		if p.Attempts[0].Method != MethodInfoGain || p.Attempts[0].Error == "" {
			t.Errorf("pair %d first attempt %+v, want failed infogain", i, p.Attempts[0])
		}
		if p.Attempts[1].Method != MethodFast || p.Attempts[1].Error != "" {
			t.Errorf("pair %d second attempt %+v, want successful fast", i, p.Attempts[1])
		}
	}
}
