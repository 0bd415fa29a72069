package method

import (
	"context"
	"errors"
	"testing"

	"github.com/fastvg/fastvg/internal/device"
)

// TestRunEveryMethod runs each table entry on a clean device: every method
// returns a fit, and only the ray fan leaves the triple point unlocated.
func TestRunEveryMethod(t *testing.T) {
	for _, name := range []Name{Fast, Adaptive, Rays, InfoGain, Baseline} {
		spec := &device.DoubleDotSpec{Seed: 1}
		inst, win, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		fit, err := Run(context.Background(), name, inst, win, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if located := fit.TripleV1 != 0 || fit.TripleV2 != 0; located == (name == Rays) {
			t.Errorf("%s: triple point (%v, %v), located = %v", name, fit.TripleV1, fit.TripleV2, located)
		}
		if fit.SteepSlope >= 0 || fit.ShallowSlope >= 0 {
			t.Errorf("%s: slopes %v, %v; want both negative", name, fit.SteepSlope, fit.ShallowSlope)
		}
	}
	if _, err := Run(context.Background(), "delta", nil, (&device.DoubleDotSpec{}).Window(), nil); err == nil {
		t.Error("a name outside the table ran")
	}
}

// TestLadder: a failed rung escalates with its probes and dwell recorded,
// the first fit wins and ends the ladder, and an exhausted ladder reports
// the last error.
func TestLadder(t *testing.T) {
	spec := &device.DoubleDotSpec{Seed: 2}
	inst, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	miss := errors.New("miss")
	run := func(fail map[Name]bool) func(context.Context, Name) (*Fit, error) {
		return func(ctx context.Context, rung Name) (*Fit, error) {
			if fail[rung] {
				inst.GetCurrent(win.V1At(0), win.V2At(0)) // a probe, the first time
				return nil, miss
			}
			return Run(ctx, rung, inst, win, nil)
		}
	}
	out, err := Ladder(context.Background(), inst, []Name{"delta", Fast, Rays}, run(map[Name]bool{"delta": true}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != Fast || out.Fit == nil || out.Err != nil || len(out.Attempts) != 2 {
		t.Fatalf("outcome %+v, want fast to win on the second attempt", out)
	}
	if a := out.Attempts[0]; a.Method != "delta" || a.Probes != 1 || a.Error != "miss" {
		t.Errorf("failed attempt %+v", a)
	}
	if out.Probes != out.Attempts[0].Probes+out.Attempts[1].Probes || out.DwellS <= 0 {
		t.Errorf("totals %d probes / %v s do not cover the attempts %+v", out.Probes, out.DwellS, out.Attempts)
	}

	out, err = Ladder(context.Background(), inst, []Name{Fast, Rays}, run(map[Name]bool{Fast: true, Rays: true}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Fit != nil || out.Winner != "" || !errors.Is(out.Err, miss) || len(out.Attempts) != 2 {
		t.Fatalf("exhausted outcome %+v", out)
	}
}

// TestLadderAbortsOnCancellation: a cancelled context, or a rung failing
// with a context error, aborts the ladder instead of escalating.
func TestLadderAbortsOnCancellation(t *testing.T) {
	spec := &device.DoubleDotSpec{Seed: 3}
	inst, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err = Ladder(ctx, inst, []Name{Fast}, func(context.Context, Name) (*Fit, error) { ran++; return nil, nil })
	if !errors.Is(err, context.Canceled) || ran != 0 {
		t.Fatalf("cancelled ladder: err %v after %d rungs", err, ran)
	}
	_, err = Ladder(context.Background(), inst, []Name{Fast, Rays}, func(_ context.Context, rung Name) (*Fit, error) {
		ran++
		return nil, context.DeadlineExceeded
	})
	if !errors.Is(err, context.DeadlineExceeded) || ran != 1 {
		t.Fatalf("rung deadline: err %v after %d rungs, want abort after 1", err, ran)
	}
}
