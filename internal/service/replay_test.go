package service

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/trace"
)

// TestReplayTraceRejectsCraftedRequests: a trace file is input from disk.
// A request that lacks the option block its kind needs, or that does not
// hash to the trace's recorded hash, must come back as an error — never
// run unvalidated, and never panic.
func TestReplayTraceRejectsCraftedRequests(t *testing.T) {
	sim := func() *device.DoubleDotSpec { return &device.DoubleDotSpec{Pixels: 16, Seed: 1} }
	chainReq := Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 3, Seed: 1},
		Chain: &ChainOptions{Methods: []chainx.Method{chainx.MethodFast, chainx.MethodRays}}}
	normalized, err := Request{Kind: KindFast, Sim: sim()}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	pair := 0
	cases := []struct {
		name  string
		req   Request
		pair  *int
		hash  string // empty: the hash of req exactly as written
		wants string
	}{
		{name: "fast without fast block", req: Request{Kind: KindFast, Sim: sim()}, wants: "does not hash"},
		{name: "rays without rays block", req: Request{Kind: KindRays, Sim: sim()}, wants: "does not hash"},
		{name: "windowfind without windowFind block", req: Request{Kind: KindWindowFind, Sim: sim()}, wants: "windowFind search bounds"},
		{name: "chain pair without fast or rays block", req: chainReq, pair: &pair, wants: "does not hash"},
		{name: "unknown kind", req: Request{Kind: "bogus", Sim: sim()}, wants: "unknown job kind"},
		{name: "wrong hash", req: normalized, hash: strings.Repeat("0", 32), wants: "does not hash"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		reqJSON, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		hash := tc.hash
		if hash == "" {
			if hash, err = hashNormalized(tc.req); err != nil {
				t.Fatal(err)
			}
		}
		spec := sim()
		spec.FillDefaults()
		path, err := trace.Write(dir, trace.Meta{Hash: hash, Request: reqJSON, Result: json.RawMessage(`{}`),
			Window: spec.Window(), Pair: tc.pair}, nil)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: ReplayTrace panicked: %v", tc.name, r)
				}
			}()
			_, err := ReplayTrace(path)
			if err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.wants)
			}
		}()
	}
}
