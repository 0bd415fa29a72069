package fleet

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/xrand"
)

// BenchmarkFleetRecalibration measures the fleet calibration loop end to
// end: a small heterogeneous fleet runs four virtual hours of monitoring and
// drift-triggered re-extraction per iteration. Beyond ns/op it reports the
// loop's economics — probes per recalibration (how much a matrix refresh
// costs through the admission path) and the steady-state staleness the
// policy holds the fleet at (mean finite device score at the end of the
// run). scripts/bench.sh records both in BENCH.txt.
func BenchmarkFleetRecalibration(b *testing.B) {
	var (
		probes   int
		recals   int
		staleSum float64
		staleN   int
	)
	for i := 0; i < b.N; i++ {
		m := New(sched.New(0), Policy{CheckInterval: 1800})
		cfgs, err := DefaultFleet(8, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cfgs {
			if _, err := m.Register(cfg); err != nil {
				b.Fatal(err)
			}
		}
		sum, err := m.Run(context.Background(), 4*3600, 300)
		if err != nil {
			b.Fatal(err)
		}
		probes += sum.ProbesSpent
		recals += sum.Calibrations + sum.Recalibrations + sum.Forced
		for _, d := range sum.Devices {
			if d.Calibrated && d.Staleness < LostStaleness {
				staleSum += d.Staleness
				staleN++
			}
		}
	}
	if recals > 0 {
		b.ReportMetric(float64(probes)/float64(recals), "probes/recal")
	}
	if staleN > 0 {
		b.ReportMetric(staleSum/float64(staleN), "staleness")
	}
}

// driftFleet builds n drift-only (wandering-profile) devices: lever arms
// wander continuously but never jump, so every recalibration happens inside
// the original scan window — the regime the surrogate twin targets.
func driftFleet(b *testing.B, n int, seed uint64) []DeviceConfig {
	out := make([]DeviceConfig, 0, n)
	for i := 0; i < n; i++ {
		spec, err := ProfileSpec(ProfileWandering, xrand.DeriveSeed(seed, i))
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, DeviceConfig{ID: fmt.Sprintf("drift-%02d", i), Weight: 2, Spec: spec})
	}
	return out
}

// BenchmarkFleetSurrogateRecalibration prices a matrix refresh on a
// drift-only fleet with and without twin-first probing, in steady state: the
// first two virtual hours (cold bring-up calibrations, first twin training)
// are warmup and excluded, then eight virtual hours of drift-triggered
// monitoring and recalibration are measured. The "live" sub-bench is the
// baseline (every probe hits the instrument, ~1300 probes/recal); the
// "surrogate" sub-bench serves plateau probes from each pair's trained twin
// and re-locates drifted lines with delta cross-scans, so only the probing
// near the moving transitions stays live. The live-probes/recal gap between
// the two is the surrogate subsystem's headline saving; scripts/bench.sh
// records both in BENCH.txt.
func BenchmarkFleetSurrogateRecalibration(b *testing.B) {
	const (
		tickSec     = 300
		warmupTicks = 24 // 2 virtual hours: bring-up + first recal wave
		steadyTicks = 96 // 8 virtual hours measured
	)
	for _, mode := range []struct {
		name      string
		threshold float64
	}{
		{"live", 0},
		{"surrogate", surrogate.DefaultThreshold},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var probes, saved, recals int
			for i := 0; i < b.N; i++ {
				m := New(sched.New(0), Policy{CheckInterval: 1800, SurrogateThreshold: mode.threshold})
				for _, cfg := range driftFleet(b, 8, 1) {
					if _, err := m.Register(cfg); err != nil {
						b.Fatal(err)
					}
				}
				ctx := context.Background()
				for t := 0; t < warmupTicks; t++ {
					if _, err := m.Tick(ctx, tickSec); err != nil {
						b.Fatal(err)
					}
				}
				for t := 0; t < steadyTicks; t++ {
					rep, err := m.Tick(ctx, tickSec)
					if err != nil {
						b.Fatal(err)
					}
					probes += rep.CheckProbes + rep.RecalProbes
					saved += rep.ProbesSaved
					recals += len(rep.Recalibrated)
				}
			}
			if recals > 0 {
				b.ReportMetric(float64(probes)/float64(recals), "probes/recal")
			}
			if probes+saved > 0 {
				b.ReportMetric(float64(saved)/float64(probes+saved), "saved-frac")
			}
		})
	}
}

// BenchmarkSurrogateEscalation measures how the share of probing that must
// stay live grows with drift magnitude: the wandering profile's sinusoidal
// shear amplitude is scaled from zero (static device: after training, almost
// everything is servable) upward (lines sweep the window: frequent refits
// and lost-twin resets force live probing). The escalation-rate metric is
// liveProbes / allProbes over a fleet day.
func BenchmarkSurrogateEscalation(b *testing.B) {
	for _, drift := range []float64{0, 0.06, 0.12, 0.24} {
		b.Run(fmt.Sprintf("drift=%.2f", drift), func(b *testing.B) {
			var probes, saved int
			for i := 0; i < b.N; i++ {
				m := New(sched.New(0), Policy{CheckInterval: 1800, SurrogateThreshold: surrogate.DefaultThreshold})
				for j, cfg := range driftFleet(b, 4, 1) {
					cfg.Spec.LeverDrift.Shear21.DriftAmp = drift
					cfg.ID = fmt.Sprintf("drift-%d", j)
					if _, err := m.Register(cfg); err != nil {
						b.Fatal(err)
					}
				}
				sum, err := m.Run(context.Background(), 4*3600, 300)
				if err != nil {
					b.Fatal(err)
				}
				probes += sum.ProbesSpent
				saved += sum.ProbesSaved
			}
			if probes+saved > 0 {
				b.ReportMetric(float64(probes)/float64(probes+saved), "escalation-rate")
			}
		})
	}
}

// BenchmarkChainPartialRecal measures the chain fleet's probe economics: a
// 4-dot chain device's single drifted pair is re-extracted (partial) versus
// the whole device (full). The probes/partial and probes/full metrics give
// the partial-recalibration savings; the ratio is the probe cost the
// per-pair staleness machinery avoids every time one pair of an N-dot
// array drifts.
func BenchmarkChainPartialRecal(b *testing.B) {
	var partialProbes, fullProbes int
	for i := 0; i < b.N; i++ {
		spec := ChainProfileSpec(4, uint64(1))
		m := New(sched.New(0), Policy{CheckInterval: 1e9})
		if _, err := m.Register(DeviceConfig{ID: "arr", Chain: &spec}); err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		// Initial calibration, then fresh epochs around each forced path.
		if _, err := m.Tick(ctx, 300); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Tick(ctx, 1800); err != nil {
			b.Fatal(err)
		}
		before := m.Status().ProbesSpent
		if _, err := m.ForceRecalibratePair(ctx, "arr", 1); err != nil {
			b.Fatal(err)
		}
		mid := m.Status().ProbesSpent
		if _, err := m.Tick(ctx, 1800); err != nil {
			b.Fatal(err)
		}
		preFull := m.Status().ProbesSpent
		if _, err := m.ForceRecalibrate(ctx, "arr"); err != nil {
			b.Fatal(err)
		}
		after := m.Status().ProbesSpent
		partialProbes += mid - before
		fullProbes += after - preFull
	}
	n := float64(b.N)
	b.ReportMetric(float64(partialProbes)/n, "probes/partial")
	b.ReportMetric(float64(fullProbes)/n, "probes/full")
	if partialProbes > 0 {
		b.ReportMetric(float64(fullProbes)/float64(partialProbes), "full/partial")
	}
}

// BenchmarkFleetJournalEvent prices the journal write behind one fleet
// event: a calibrated double dot whose history ring holds HistoryCap events
// persists its state and one new event into a store in b.TempDir(), as a
// tick's barrier does. CompactEvery is out of reach, so no compaction is
// amortised in. Beyond ns/op and allocs/op it reports the journal bytes one
// event appends. The end-to-end fleet-loop benchmark reports the median
// tick, which journals only the clock record; this is where the per-event
// cost shows.
func BenchmarkFleetJournalEvent(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{CompactEvery: math.MaxInt})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	m := New(sched.New(1), Policy{})
	if err := m.AttachStore(st); err != nil {
		b.Fatal(err)
	}
	spec, err := ProfileSpec(ProfileWandering, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Register(DeviceConfig{ID: "dev", Spec: spec}); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Tick(context.Background(), 300); err != nil { // calibrates
		b.Fatal(err)
	}
	d := m.devices["dev"]
	ev := d.history[len(d.history)-1]
	for len(d.history) < m.pol.HistoryCap {
		d.pushEvent(m.pol, ev)
	}
	before := st.Stats().LogBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.mu.Lock()
		d.pushEvent(m.pol, ev)
		err := m.persistDevice(d, []Event{ev})
		d.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.Stats().LogBytes-before)/float64(b.N), "journal-B/op")
}
