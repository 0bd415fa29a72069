package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
	"github.com/fastvg/fastvg/internal/sched"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/xrand"
)

// goldenFleetDigests pin every tick report, history and final status of the
// golden catalogue below. They were recorded on linux/amd64; any change to
// what a recalibration measures or decides changes them.
var goldenFleetDigests = map[string]string{
	"raster/profiles":    "207f3c134e56a39f25651958705fa8ece9901e77f3b147e8bfdd8e0af755d99d",
	"infogain/profiles":  "b9d47a78904f6cdc21e99a7673b4ba4184ff34ec37af849fae98ea3a05b8d40c",
	"surrogate/profiles": "9bcf7352678fe90f15195670298c925800b0199ddaea54b90f6cd627296be76f",
	"surrogate/leapers":  "387631dd825a156055e59ffbd4067cf5b899b6080d42648fab0198ff7dfe59bb",
	"both/profiles":      "9bcf7352678fe90f15195670298c925800b0199ddaea54b90f6cd627296be76f",
	"both/leapers":       "aed0201ac10941ea5c0ec19b663865c4c00bf02c81aa598adb36ac09dc537690",
}

// goldenPolicies are the four recalibration policies: full raster,
// infogain-guided, twin-first with delta recalibration, and both.
func goldenPolicies() []struct {
	name string
	pol  Policy
} {
	return []struct {
		name string
		pol  Policy
	}{
		{"raster", Policy{}},
		{"infogain", Policy{InfoGain: true}},
		{"surrogate", Policy{SurrogateThreshold: surrogate.DefaultThreshold}},
		{"both", Policy{InfoGain: true, SurrogateThreshold: surrogate.DefaultThreshold}},
	}
}

// goldenProfileFleet is one double dot per canonical profile, a 4-dot chain
// and an 8-pixel device whose raster cannot place its anchors, so every
// attempt ends calibrate-failed.
func goldenProfileFleet(t *testing.T) []DeviceConfig {
	t.Helper()
	var cfgs []DeviceConfig
	for i, p := range Profiles() {
		spec, err := ProfileSpec(p, xrand.DeriveSeed(3, i))
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, DeviceConfig{ID: p, Weight: profileWeight(p), Spec: spec})
	}
	chain := ChainProfileSpec(4, 3)
	cfgs = append(cfgs,
		DeviceConfig{ID: "chain", Weight: 2, Chain: &chain},
		DeviceConfig{ID: "tiny", Spec: device.DoubleDotSpec{Pixels: 8, Seed: 3}})
	return cfgs
}

// goldenLeapers are double dots whose operating point jumps by several
// millivolts at a time. Under the wide check scans their catalogue runs
// with, a spot-check still sees lines that a delta recalibration's cross
// scans miss, so the twin-first policies fall through to infogain or the
// raster.
func goldenLeapers(t *testing.T) []DeviceConfig {
	t.Helper()
	var cfgs []DeviceConfig
	for _, seed := range []uint64{3, 7} {
		spec, err := ProfileSpec(ProfileStandard, xrand.DeriveSeed(seed, 7))
		if err != nil {
			t.Fatal(err)
		}
		spec.LeverDrift = &device.LeverDriftSpec{Offset1: noise.Params{JumpAmp: 4, JumpInterval: 3600}}
		cfgs = append(cfgs, DeviceConfig{ID: fmt.Sprintf("leaper-%d", seed), Spec: spec})
	}
	return cfgs
}

// goldenRun ticks a fleet and hashes its every observable output: each tick
// report, then each device's full history and the final status. outcomes
// counts how each (re)calibration was served (see classify).
func goldenRun(t *testing.T, pol Policy, cfgs []DeviceConfig, ticks int, force string, outcomes map[string]int) string {
	t.Helper()
	pol.HistoryCap = 1 << 16 // keep every event: the digest and classify read them all
	m := New(sched.New(2), pol)
	for _, cfg := range cfgs {
		if _, err := m.Register(cfg); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	enc := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	for i := 0; i < ticks; i++ {
		ready, seen := deltaReady(m)
		rep, err := m.Tick(context.Background(), 300)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		enc(rep)
		classify(m, ready, seen, outcomes)
	}
	if force != "" {
		ev, err := m.ForceRecalibrate(context.Background(), force)
		if err != nil {
			t.Fatal(err)
		}
		enc(ev)
		outcomes["force"]++
	}
	digestHistories(t, m, h)
	enc(m.Status())
	return hex.EncodeToString(h.Sum(nil))
}

func digestHistories(t *testing.T, m *Manager, h hash.Hash) {
	t.Helper()
	for _, id := range m.order {
		evs, _ := m.History(id)
		b, err := json.Marshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
}

// deltaReady snapshots, per "<device>/<pair>", whether a scheduled
// recalibration would try the delta path first (a tracked pair with a
// fitted twin), and each device's history length.
func deltaReady(m *Manager) (map[string]bool, map[string]int) {
	ready := map[string]bool{}
	seen := map[string]int{}
	for _, id := range m.order {
		d := m.devices[id]
		d.mu.Lock()
		seen[id] = len(d.history)
		for _, pc := range d.pairs {
			ready[fmt.Sprintf("%s/%d", id, pc.idx)] = m.pol.SurrogateThreshold > 0 &&
				pc.hasCal && !pc.lost && pc.model != nil && pc.model.Fitted()
		}
		d.mu.Unlock()
	}
	return ready, seen
}

// classify names how each calibration event of the last tick was served. A
// pair whose check lost its lines this tick skips the delta rung.
func classify(m *Manager, ready map[string]bool, seen map[string]int, outcomes map[string]int) {
	for _, id := range m.order {
		d := m.devices[id]
		d.mu.Lock()
		evs := d.history[seen[id]:]
		lost := map[int]bool{}
		for _, ev := range evs {
			if ev.Kind == "check" && ev.Err != "" {
				lost[ev.Pair] = true
			}
		}
		for _, ev := range evs {
			delta := ready[fmt.Sprintf("%s/%d", id, ev.Pair)] && !lost[ev.Pair]
			switch {
			case ev.Kind == "check":
			case ev.Kind != "recalibrate":
				outcomes[ev.Kind]++
			case ev.Delta:
				outcomes["delta"]++
			case delta && ev.InfoGain:
				outcomes["delta→infogain"]++
			case delta:
				outcomes["delta→raster"]++
			case ev.InfoGain:
				outcomes["infogain"]++
			default:
				outcomes["raster"]++
			}
		}
		d.mu.Unlock()
	}
}

// TestGoldenFleetDigests pins the fleet's recalibration outcomes bit for
// bit: double dots of every profile, a chain, a device whose raster always
// fails and jumpy devices, under all four policies, plus one operator
// force. The catalogue must reach every way a calibration is served.
func TestGoldenFleetDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	outcomes := map[string]int{}
	for _, pc := range goldenPolicies() {
		force := ""
		if pc.name == "raster" {
			force = ProfileWandering
		}
		got := map[string]string{
			pc.name + "/profiles": goldenRun(t, pc.pol, goldenProfileFleet(t), 96, force, outcomes),
		}
		if pc.pol.SurrogateThreshold > 0 {
			leapPol := pc.pol
			leapPol.CheckScanFrac = 0.3
			got[pc.name+"/leapers"] = goldenRun(t, leapPol, goldenLeapers(t), 150, "", outcomes)
		}
		for name, d := range got {
			if want := goldenFleetDigests[name]; d != want {
				t.Errorf("%s: digest %s, want %s", name, d, want)
			}
		}
	}
	t.Logf("outcomes: %v", outcomes)
	for _, o := range []string{"calibrate", "raster", "infogain", "delta", "delta→raster", "delta→infogain", "force", "calibrate-failed"} {
		if outcomes[o] == 0 {
			t.Errorf("catalogue never reached outcome %q (reached %v)", o, outcomes)
		}
	}
}
