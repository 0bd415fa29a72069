package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/qflow"
	"github.com/fastvg/fastvg/internal/sched"
)

// craftedNoise are sensor or drift models no route may build: each would
// size an allocation, a loop or a raster from input.
var craftedNoise = []noise.Params{
	{PinkAmp: 0.01, PinkN: 4000000},
	{JumpAmp: 0.1, JumpInterval: 1e-7},
	{WhiteSigma: -0.01},
	{PinkAmp: 0.01, PinkFMin: 5, PinkFMax: 0.5},
}

// TestCraftedSpecsRejected: every route that builds a device from a spec
// in the request body answers 400 for a spec outside its limits — sim,
// lever-drift, chain and pair-drift noise, pixel counts, chain dot counts,
// chain pair windows and windowfind pixels. A batch reports the error on
// its item.
func TestCraftedSpecsRejected(t *testing.T) {
	svc, srv := newTestServer(t)
	var sims []device.DoubleDotSpec
	var chains []device.ChainSpec
	for _, p := range craftedNoise {
		sims = append(sims,
			device.DoubleDotSpec{Noise: p},
			device.DoubleDotSpec{LeverDrift: &device.LeverDriftSpec{Offset2: p}})
		chains = append(chains,
			device.ChainSpec{Noise: p},
			device.ChainSpec{Dots: 3, PairDrift: []device.LeverDriftSpec{{}, {Shear12: p}}})
	}
	sims = append(sims, device.DoubleDotSpec{Pixels: 1000000})
	chains = append(chains, device.ChainSpec{Pixels: 1000000}, device.ChainSpec{Dots: 1000000})

	type route struct {
		name, path string
		body       any
	}
	var routes []route
	for _, s := range sims {
		for _, k := range []Kind{KindFast, KindBaseline} {
			routes = append(routes, route{"job " + string(k), "/v1/jobs", Request{Kind: k, Sim: &s}})
		}
		routes = append(routes,
			route{"session", "/v1/sessions", map[string]any{"spec": s}},
			route{"fleet device", "/v1/fleet/devices", fleet.DeviceConfig{ID: "bad", Spec: s}})
	}
	for _, c := range chains {
		routes = append(routes,
			route{"chain job", "/v1/jobs", Request{Kind: KindChain, ChainSim: &c}},
			route{"fleet chain", "/v1/fleet/devices", fleet.DeviceConfig{ID: "bad", Chain: &c}})
	}
	wide := csd.NewSquareWindow(0, 0, 40, 2000)
	routes = append(routes,
		route{"chain windows", "/v1/jobs", Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 3},
			Chain: &ChainOptions{Windows: []csd.Window{wide, wide}}}},
		route{"windowfind pixels", "/v1/jobs", Request{Kind: KindWindowFind, Sim: &device.DoubleDotSpec{},
			WindowFind: &WindowFindOptions{V1Max: 50, V2Max: 50, Pixels: 1000000}}})
	for i, r := range routes {
		t.Run(fmt.Sprintf("%02d-%s", i, r.name), func(t *testing.T) {
			doJSON(t, "POST", srv.URL+r.path, r.body, http.StatusBadRequest, nil)
		})
	}
	// A batch answers per item: the crafted item carries the same error.
	var batch struct {
		Items []struct {
			Error string `json:"error"`
		} `json:"items"`
	}
	manyDots := chains[len(chains)-1]
	doJSON(t, "POST", srv.URL+"/v1/batch", map[string]any{"requests": []Request{
		{Kind: KindFast, Sim: &sims[0]}, {Kind: KindChain, ChainSim: &manyDots}}}, http.StatusOK, &batch)
	if len(batch.Items) != 2 || !strings.Contains(batch.Items[0].Error, "sim spec") ||
		!strings.Contains(batch.Items[1].Error, "chain dots") {
		t.Fatalf("batch of crafted specs answered %+v", batch.Items)
	}
	if n := svc.Fleet().DeviceCount(); n != 0 {
		t.Fatalf("%d crafted fleet devices registered", n)
	}
	if n := svc.Registry().SessionCount(); n != 0 {
		t.Fatalf("%d crafted sessions opened", n)
	}
}

// TestShippedSpecsWithinLimits: every spec the repository ships passes the
// limits the routes enforce — noise presets, the fleet's profiles and
// default fleets, the qflow suite, the shapes of the end-to-end
// benchmark's generated requests (a sim per preset, chains of 4–8 dots per
// preset, twin-first sims) and the 16-dot chain of BenchmarkChainExtract.
func TestShippedSpecsWithinLimits(t *testing.T) {
	presets := []noise.Params{noise.PresetQuiet(), noise.PresetStandard(), noise.PresetUnstable()}
	for _, p := range presets {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %+v: %v", p, err)
		}
	}
	var reqs []Request
	for _, p := range presets {
		reqs = append(reqs,
			Request{Kind: KindFast, Sim: &device.DoubleDotSpec{Noise: p, Seed: 3}},
			Request{Kind: KindFast, Sim: &device.DoubleDotSpec{Noise: p, Seed: 3, Surrogate: &device.SurrogateSpec{Threshold: 0.35}}})
		for dots := 4; dots <= 8; dots++ {
			reqs = append(reqs, Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: dots, Noise: p, Seed: 3}})
		}
	}
	reqs = append(reqs, Request{Kind: KindChain, ChainSim: &device.ChainSpec{Dots: 16, Noise: noise.Params{WhiteSigma: 0.01}, Seed: 7}})
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Errorf("request %+v: %v", r, err)
		}
	}

	for _, prof := range fleet.Profiles() {
		spec, err := fleet.ProfileSpec(prof, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.CheckLimits(); err != nil {
			t.Errorf("profile %s: %v", prof, err)
		}
	}
	for _, dots := range []int{2, 4, 6} {
		if err := fleet.ChainProfileSpec(dots, 5).CheckLimits(); err != nil {
			t.Errorf("chain profile (%d dots): %v", dots, err)
		}
	}
	cfgs, err := fleet.DefaultFleet(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, fleet.DefaultChainFleet(4, 4, 1)...)
	m := fleet.New(sched.New(1), fleet.Policy{})
	for _, cfg := range cfgs {
		if _, err := m.Register(cfg); err != nil {
			t.Errorf("default fleet device %s: %v", cfg.ID, err)
		}
	}

	suite, err := qflow.Suite()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range suite {
		if err := b.Noise.Validate(); err != nil {
			t.Errorf("%s noise: %v", b.Name, err)
		}
		if b.Window.Cols > device.MaxPixels || b.Window.Rows > device.MaxPixels {
			t.Errorf("%s window %dx%d exceeds %d pixels", b.Name, b.Window.Cols, b.Window.Rows, device.MaxPixels)
		}
	}
}
