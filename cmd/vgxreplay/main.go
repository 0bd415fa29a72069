// Command vgxreplay re-executes recorded extractions offline and verifies
// they reproduce the recorded virtual-gate matrices byte-for-byte.
//
// Two sources, combinable:
//
//   - A probe trace (-trace file, or every trace under <data-dir>/traces):
//     the recorded request runs through the real pipeline code against the
//     recorded (voltages, time, current) samples — zero live-instrument
//     probes. Any divergence (a probe the recording never made, a matrix
//     bit that differs) is a regression in the extraction code or a
//     corrupted trace. Traces of surrogate jobs carry the twin snapshot
//     taken before extraction, so replay rebuilds the same model-first
//     probing — hits, escalations and all — bit for bit.
//
//   - The journal (-data-dir with -journal, default on): every cacheable
//     extraction persisted by a durable vgxd is re-executed from scratch
//     against a fresh simulated instrument and diffed against the journaled
//     result — the regression test that the whole stack is deterministic.
//
// A durable daemon also journals one timing span tree per executed job
// (where the job spent wall-clock and virtual instrument time, per
// pipeline / chain pair / probe batch) and every alert firing/resolved
// transition; -spans prints the recorded trees, -alerts the alert
// history, instead of replaying:
//
//	vgxreplay -data-dir /var/lib/vgxd -spans
//	vgxreplay -data-dir /var/lib/vgxd -alerts
//
// Usage:
//
//	vgxreplay -trace data/traces/0a1b2c….fvgt
//	vgxreplay -data-dir /var/lib/vgxd
//	vgxreplay -data-dir /var/lib/vgxd -journal=false   # traces only
//	vgxreplay -data-dir /var/lib/vgxd -spans           # dump span trees
//	vgxreplay -data-dir /var/lib/vgxd -alerts          # dump alert history
//
// Exit status 1 when any replay mismatches. Run it against a stopped
// daemon's data dir (the journal open may truncate a torn tail, exactly as
// a daemon restart would).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	fastvg "github.com/fastvg/fastvg"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "replay one trace file")
		dataDir   = flag.String("data-dir", "", "replay a daemon data dir: every trace under <dir>/traces, plus the journal")
		journal   = flag.Bool("journal", true, "with -data-dir, also re-execute journaled extractions against fresh instruments")
		workers   = flag.Int("workers", 0, "worker-pool slots for journal re-execution (0 = one per CPU)")
		spans     = flag.Bool("spans", false, "with -data-dir, print the journaled job span trees instead of replaying")
		alerts    = flag.Bool("alerts", false, "with -data-dir, print the journaled alert firing/resolved history instead of replaying")
		asJSON    = flag.Bool("json", false, "emit outcomes as JSON")
		verbose   = flag.Bool("v", false, "print every outcome, not just mismatches")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()
	logger := newLogger(*logFormat)
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	if *tracePath == "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "usage: vgxreplay -trace file | -data-dir dir [-journal=false] [-spans]")
		os.Exit(2)
	}

	if *alerts {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "vgxreplay: -alerts requires -data-dir")
			os.Exit(2)
		}
		evs, err := fastvg.LoadAlertHistory(*dataDir)
		if err != nil {
			fatal("loading alert history", err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(evs); err != nil {
				fatal("encoding alert history", err)
			}
			return
		}
		for _, ev := range evs {
			fmt.Printf("t=%-10.1f %-8s %-9s %s (value %g)\n", ev.AtS, ev.State, ev.Severity, ev.Rule, ev.Value)
		}
		fmt.Printf("vgxreplay: %d alert transitions\n", len(evs))
		return
	}

	if *spans {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "vgxreplay: -spans requires -data-dir")
			os.Exit(2)
		}
		recs, err := fastvg.LoadSpans(*dataDir)
		if err != nil {
			fatal("loading spans", err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(recs); err != nil {
				fatal("encoding spans", err)
			}
			return
		}
		for _, r := range recs {
			fmt.Printf("%s\n", r.Hash)
			r.Span.Render(os.Stdout)
		}
		fmt.Printf("vgxreplay: %d span trees\n", len(recs))
		return
	}

	var outs []fastvg.ReplayOutcome
	replayTrace := func(path string) {
		out, err := fastvg.ReplayTrace(path)
		if err != nil {
			logger.Error("trace replay failed", "path", path, "err", err)
			os.Exit(1)
		}
		outs = append(outs, *out)
	}
	if *tracePath != "" {
		replayTrace(*tracePath)
	}
	if *dataDir != "" {
		paths, err := fastvg.ListTraces(filepath.Join(*dataDir, "traces"))
		if err != nil {
			fatal("listing traces", err)
		}
		for _, p := range paths {
			replayTrace(p)
		}
		if *journal {
			jouts, err := fastvg.ReplayJournal(context.Background(), *dataDir, *workers)
			if err != nil {
				fatal("journal replay failed", err)
			}
			outs = append(outs, jouts...)
		}
	}

	matched, mismatched, skipped := 0, 0, 0
	for _, o := range outs {
		switch {
		case o.Skipped:
			skipped++
		case o.Match:
			matched++
		default:
			mismatched++
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"outcomes": outs,
			"matched":  matched, "mismatched": mismatched, "skipped": skipped,
		}); err != nil {
			fatal("encoding outcomes", err)
		}
	} else {
		for _, o := range outs {
			kind := string(o.Kind)
			if o.Pair != nil {
				// A chain job's per-pair trace: one file per adjacent pair.
				kind = fmt.Sprintf("%s/%d", o.Kind, *o.Pair)
			}
			switch {
			case o.Skipped:
				if *verbose {
					fmt.Printf("SKIP  %-9s %s (%s)\n", kind, o.Source, o.SkipReason)
				}
			case o.Match:
				if *verbose {
					fmt.Printf("OK    %-9s %s probes=%d live=%d\n", kind, o.Source, o.RecordedProbes(), o.LiveProbes)
				}
			default:
				fmt.Printf("FAIL  %-9s %s\n", kind, o.Source)
				for _, d := range o.Diffs {
					fmt.Printf("      diff: %s\n", d)
				}
				if o.ReplayErr != "" {
					fmt.Printf("      replay: %s\n", o.ReplayErr)
				}
			}
		}
		fmt.Printf("vgxreplay: %d matched, %d mismatched, %d skipped\n", matched, mismatched, skipped)
	}
	if mismatched > 0 {
		os.Exit(1)
	}
}

// newLogger builds the slog handler for -log-format.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}
