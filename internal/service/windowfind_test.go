package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"github.com/fastvg/fastvg/internal/device"
)

// windowFindDigest pins the results of TestWindowFindFarProbes for spans up
// to 1e5 mV, recorded on linux/amd64 before far probes had a memo bound.
const windowFindDigest = "3da98f13abefeba5a4b7375163469c56dce313ac1ad559265d165f49480b4d68"

// TestWindowFindFarProbes: a windowfind job searching [0, s]² mV on a
// default sim, for s = 1e2 … 1e9, probes up to s mV from the sim's window.
// None may allocate more than 16 MiB — the memo must not stretch a row to
// reach a far probe — and the results for s ≤ 1e5 keep their recorded
// bits.
func TestWindowFindFarProbes(t *testing.T) {
	svc, err := New(Config{Workers: 1, ScrapeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	h := sha256.New()
	for _, s := range []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9} {
		req := Request{Kind: KindWindowFind, Sim: &device.DoubleDotSpec{}, WindowFind: &WindowFindOptions{V1Max: s, V2Max: s}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := svc.Run(context.Background(), req)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("span %g mV: %v", s, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("span %g mV: the job allocated %.1f MiB, want at most 16", s, float64(grew)/(1<<20))
		}
		if s <= 1e5 {
			h.Write(goldenEncode(t, res))
			h.Write([]byte{'\n'})
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest was recorded on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != windowFindDigest {
		t.Fatalf("windowfind digest %s, want %s", got, windowFindDigest)
	}
}
