package service

import (
	"strings"
	"testing"

	"github.com/fastvg/fastvg/internal/device"
)

// TestHashCanonicalisation checks that requests meaning the same extraction
// share one hash, however the defaults are spelled.
func TestHashCanonicalisation(t *testing.T) {
	implicit := Request{Kind: KindFast, Benchmark: 3}
	explicit := Request{
		Kind:      KindFast,
		Benchmark: 3,
		Fast:      &FastOptions{DiagonalProbes: 10, GaussSigmaFrac: 0.25},
		// Options for other pipelines are irrelevant to a fast job and must
		// not perturb the hash.
		Rays: &RayOptions{NumRays: 99},
	}
	h1, err := implicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("equivalent requests hash differently: %s vs %s", h1, h2)
	}

	sim1 := Request{Kind: KindFast, Sim: &device.DoubleDotSpec{}}
	sim2 := Request{Kind: KindFast, Sim: &device.DoubleDotSpec{Pixels: 100, SteepSlope: -8}}
	h3, err := sim1.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h4, err := sim2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h4 {
		t.Fatalf("default-spelling sim requests hash differently: %s vs %s", h3, h4)
	}
}

// TestHashDistinguishes checks semantically different requests get
// different hashes.
func TestHashDistinguishes(t *testing.T) {
	base := Request{Kind: KindFast, Benchmark: 3}
	variants := []Request{
		{Kind: KindBaseline, Benchmark: 3},
		{Kind: KindFast, Benchmark: 4},
		{Kind: KindFast, Benchmark: 3, Fast: &FastOptions{DiagonalProbes: 20}},
		{Kind: KindFast, Benchmark: 3, Fast: &FastOptions{RowSweepOnly: true}},
		{Kind: KindAdaptive, Benchmark: 3},
		{Kind: KindFast, Sim: &device.DoubleDotSpec{Seed: 7}},
	}
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{h0: -1}
	for i, v := range variants {
		h, err := v.Hash()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("variants %d and %d collide on %s", prev, i, h)
		}
		seen[h] = i
	}
}

// TestValidate exercises the request validation rules.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string // error substring; empty = valid
	}{
		{"valid benchmark", Request{Kind: KindFast, Benchmark: 5}, ""},
		{"valid sim", Request{Kind: KindRays, Sim: &device.DoubleDotSpec{}}, ""},
		{"valid session", Request{Kind: KindFast, Session: "sess-0001"}, ""},
		{"bad kind", Request{Kind: "hough", Benchmark: 1}, "unknown job kind"},
		{"no target", Request{Kind: KindFast}, "exactly one"},
		{"two targets", Request{Kind: KindFast, Benchmark: 1, Sim: &device.DoubleDotSpec{}}, "exactly one"},
		{"benchmark range", Request{Kind: KindFast, Benchmark: 13}, "out of range"},
		{"windowfind on benchmark", Request{Kind: KindWindowFind, Benchmark: 2,
			WindowFind: &WindowFindOptions{V1Max: 100, V2Max: 100}}, "sim or session"},
		{"windowfind without bounds", Request{Kind: KindWindowFind, Sim: &device.DoubleDotSpec{}}, "bounds"},
		{"windowfind degenerate bounds", Request{Kind: KindWindowFind, Sim: &device.DoubleDotSpec{},
			WindowFind: &WindowFindOptions{V1Min: 10, V1Max: 5, V2Max: 100}}, "degenerate"},
		{"infogain defaults", Request{Kind: KindInfoGain, Benchmark: 1, InfoGain: &InfoGainOptions{}}, ""},
		{"infogain range edges", Request{Kind: KindInfoGain, Benchmark: 1,
			InfoGain: &InfoGainOptions{TargetCI: 1e-9, MaxProbes: 1 << 40, NoiseEps: 0.4999, MinProbes: 1}}, ""},
		{"infogain negative maxProbes", Request{Kind: KindInfoGain, Benchmark: 1,
			InfoGain: &InfoGainOptions{MaxProbes: -1}}, "maxProbes"},
		{"infogain negative minProbes", Request{Kind: KindInfoGain, Benchmark: 1,
			InfoGain: &InfoGainOptions{MinProbes: -1}}, "minProbes"},
		{"infogain negative targetCI", Request{Kind: KindInfoGain, Benchmark: 1,
			InfoGain: &InfoGainOptions{TargetCI: -0.03}}, "targetCI"},
		{"infogain noiseEps 0.5", Request{Kind: KindInfoGain, Benchmark: 1,
			InfoGain: &InfoGainOptions{NoiseEps: 0.5}}, "noiseEps"},
		{"infogain negative noiseEps", Request{Kind: KindInfoGain, Benchmark: 1,
			InfoGain: &InfoGainOptions{NoiseEps: -0.08}}, "noiseEps"},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestCacheable checks only session jobs bypass the cache.
func TestCacheable(t *testing.T) {
	if !(Request{Kind: KindFast, Benchmark: 1}).Cacheable() {
		t.Error("benchmark jobs should be cacheable")
	}
	if !(Request{Kind: KindFast, Sim: &device.DoubleDotSpec{}}).Cacheable() {
		t.Error("sim jobs should be cacheable")
	}
	if (Request{Kind: KindFast, Session: "sess-0001"}).Cacheable() {
		t.Error("session jobs must not be cacheable")
	}
}
