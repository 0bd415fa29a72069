package service

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/qflow"
	"github.com/fastvg/fastvg/internal/trace"
)

// TestReplayTraceRejectsCraftedRequests: a trace file is input from disk.
// A request that lacks the option block its kind needs, or that does not
// hash to the trace's recorded hash, must come back as an error — never
// run unvalidated, and never panic. So must a window no hash covers that
// differs from the one the request fixes, a session window out of bounds,
// and a pair index outside the chain.
func TestReplayTraceRejectsCraftedRequests(t *testing.T) {
	sim := func() *device.DoubleDotSpec { return &device.DoubleDotSpec{Pixels: 16, Seed: 1} }
	chainReq := Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 3, Seed: 1},
		Chain: &ChainOptions{Methods: []chainx.Method{chainx.MethodFast, chainx.MethodRays}}}
	normalize := func(r Request) Request {
		n, err := r.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	normalized := normalize(Request{Kind: KindFast, Sim: sim()})
	chainNorm := normalize(chainReq)
	pair, pastEnd, negative := 0, 2, -1
	// huge is 3 × 2^62 pixels: sizing a grid by it panics in makeslice before
	// allocating anything.
	huge := csd.Window{V1Max: 1, V2Max: 1, Cols: 3, Rows: 1 << 62}
	narrow := chainNorm.Chain.Windows[0]
	narrow.Cols--
	wide := qflow.MustSuite()[2].Window // benchmark 3's
	wide.Cols++
	cases := []struct {
		name   string
		req    Request
		pair   *int
		window *csd.Window // nil: the sim spec's window
		hash   string      // empty: the hash of req exactly as written
		wants  string
	}{
		{name: "fast without fast block", req: Request{Kind: KindFast, Sim: sim()}, wants: "does not hash"},
		{name: "rays without rays block", req: Request{Kind: KindRays, Sim: sim()}, wants: "does not hash"},
		{name: "windowfind without windowFind block", req: Request{Kind: KindWindowFind, Sim: sim()}, wants: "windowFind search bounds"},
		{name: "chain pair without fast or rays block", req: chainReq, pair: &pair, wants: "does not hash"},
		{name: "unknown kind", req: Request{Kind: "bogus", Sim: sim()}, wants: "unknown job kind"},
		{name: "wrong hash", req: normalized, hash: strings.Repeat("0", 32), wants: "does not hash"},
		{name: "sim window not the spec's", req: normalize(Request{Kind: KindBaseline, Sim: sim()}), window: &huge, wants: "window"},
		{name: "benchmark window not the suite's", req: normalize(Request{Kind: KindFast, Benchmark: 3}), window: &wide, wants: "window"},
		{name: "chain pair window not the request's", req: chainNorm, pair: &pair, window: &narrow, wants: "window"},
		{name: "chain pair past the last pair", req: chainNorm, pair: &pastEnd, window: &narrow, wants: "pair 2"},
		{name: "negative chain pair", req: chainNorm, pair: &negative, wants: "pair -1"},
		{name: "chain without a pair index", req: chainNorm, window: &chainNorm.Chain.Windows[0], wants: "pair index"},
		{name: "pair index on a sim request", req: normalized, pair: &pair, wants: "pair index"},
		{name: "session window past the pixel cap", req: normalize(Request{Kind: KindFast, Session: "sess-0001"}), window: &huge, wants: "exceeds"},
		{name: "session window below 2x2", req: normalize(Request{Kind: KindFast, Session: "sess-0001"}),
			window: &csd.Window{V1Max: 1, V2Max: 1, Cols: 1, Rows: 8}, wants: "2x2"},
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
		win := spec.Window()
		if tc.window != nil {
			win = *tc.window
		}
		path, err := trace.Write(dir, trace.Meta{Hash: hash, Request: reqJSON, Result: json.RawMessage(`{}`),
			Window: win, Pair: tc.pair}, nil)
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
