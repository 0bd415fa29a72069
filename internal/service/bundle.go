package service

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

// The flight-recorder bundle: GET /debug/bundle tars everything a
// postmortem needs into one self-contained artifact — a metrics
// exposition snapshot, the recent tsdb windows, active + historical
// alerts, the journaled span trees, fleet and service accounting, and
// build info — so triaging a sick daemon starts from one download
// instead of a scavenger hunt across endpoints that may already be
// gone.

// bundleInfo is the bundle's build/config manifest.
type bundleInfo struct {
	GoVersion   string    `json:"goVersion"`
	Module      string    `json:"module,omitempty"`
	VCSRevision string    `json:"vcsRevision,omitempty"`
	VCSTime     string    `json:"vcsTime,omitempty"`
	CapturedAt  time.Time `json:"capturedAt"`
	UptimeS     float64   `json:"uptimeS"`
	Workers     int       `json:"workers"`
	Durable     bool      `json:"durable"`
	MaxQueue    int       `json:"maxQueueDepth"`
	AlertsOn    bool      `json:"alertsOn"`
}

// bundleSpanCap bounds the span trees included in a bundle — the
// newest trees by hash order; the journal retains the rest.
const bundleSpanCap = 32

// WriteBundle streams the debug bundle as a gzipped tar. Every entry is
// best-effort: a subsystem that cannot serialise is skipped rather than
// sinking the whole artifact.
func (s *Service) WriteBundle(w io.Writer) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	now := time.Now()
	add := func(name string, data []byte) error {
		if err := tw.WriteHeader(&tar.Header{
			Name: "vgx-bundle/" + name, Mode: 0o644, Size: int64(len(data)), ModTime: now,
		}); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	addJSON := func(name string, v any) error {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return nil // skip the entry, keep the bundle
		}
		return add(name, b)
	}

	info := bundleInfo{
		GoVersion:  runtime.Version(),
		CapturedAt: now,
		UptimeS:    time.Since(s.started).Seconds(),
		Workers:    s.pool.Stats().Workers,
		Durable:    s.store != nil,
		MaxQueue:   s.maxQueue,
		AlertsOn:   s.obs != nil && s.obs.engine != nil,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info.VCSRevision = kv.Value
			case "vcs.time":
				info.VCSTime = kv.Value
			}
		}
	}

	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	fail(addJSON("build.json", info))
	fail(add("metrics.txt", []byte(s.metrics.reg.Expose())))
	fail(addJSON("health.json", s.Health()))
	fail(addJSON("stats.json", s.Stats()))
	fail(addJSON("fleet.json", s.fleet.Status()))
	if s.obs != nil {
		fail(addJSON("tsdb.json", map[string]any{
			"stats":  s.obs.db.Stats(),
			"series": s.obs.db.Dump(128),
		}))
		if s.obs.engine != nil {
			fail(addJSON("alerts.json", map[string]any{
				"alerts":  s.obs.engine.Statuses(),
				"firing":  s.obs.engine.Firing(),
				"history": s.obs.engine.History(0),
			}))
		}
	}
	if hashes := s.SpanHashes(); len(hashes) > 0 {
		if len(hashes) > bundleSpanCap {
			hashes = hashes[len(hashes)-bundleSpanCap:]
		}
		var buf bytes.Buffer
		for _, h := range hashes {
			if sp, ok := s.SpanTree(h); ok {
				buf.WriteString(h + "\n")
				sp.Render(&buf)
				buf.WriteByte('\n')
			}
		}
		fail(add("spans.txt", buf.Bytes()))
	}
	if e := tw.Close(); e != nil && err == nil {
		err = e
	}
	if e := gz.Close(); e != nil && err == nil {
		err = e
	}
	return err
}
