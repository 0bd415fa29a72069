package trace

import (
	"math"
	"os"
	"testing"
	"time"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/noise"
)

func testInstrument(t *testing.T) (*device.SimInstrument, [2]int) {
	t.Helper()
	spec := &device.DoubleDotSpec{
		Pixels: 40,
		Seed:   11,
		Noise:  noise.Params{WhiteSigma: 0.01, PinkAmp: 0.012},
	}
	inst, win, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst, [2]int{win.Cols, win.Rows}
}

// TestRecordReplayBitIdentical probes a noisy instrument through a
// Recorder, then replays the trace: every current and the full Stats
// trajectory must come back bit-identical with zero live probes.
func TestRecordReplayBitIdentical(t *testing.T) {
	inst, dims := testInstrument(t)
	rec := NewRecorder(inst)

	var want []float64
	for y := 0; y < dims[1]; y += 3 {
		for x := 0; x < dims[0]; x += 2 {
			v1, v2 := float64(x)*0.5, float64(y)*0.5
			want = append(want, rec.GetCurrent(v1, v2))
			if x%4 == 0 { // re-probe: a memo hit, recorded as non-unique
				want = append(want, rec.GetCurrent(v1, v2))
			}
		}
	}
	meta := Meta{Hash: "test"}
	path, err := Write(t.TempDir(), meta, rec.Samples())
	if err != nil {
		t.Fatal(err)
	}
	gotMeta, samples, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Hash != "test" {
		t.Fatalf("meta hash = %q", gotMeta.Hash)
	}
	if len(samples) != len(want) {
		t.Fatalf("samples = %d, want %d", len(samples), len(want))
	}

	rp := NewReplayer(gotMeta, samples)
	i := 0
	for y := 0; y < dims[1]; y += 3 {
		for x := 0; x < dims[0]; x += 2 {
			v1, v2 := float64(x)*0.5, float64(y)*0.5
			if got := rp.GetCurrent(v1, v2); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("replayed current %d = %v, want %v", i, got, want[i])
			}
			i++
			if x%4 == 0 {
				if got := rp.GetCurrent(v1, v2); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("replayed repeat %d = %v, want %v", i, got, want[i])
				}
				i++
			}
		}
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	if rp.Remaining() != 0 {
		t.Fatalf("%d samples never replayed", rp.Remaining())
	}
	live, replayed := inst.Stats(), rp.Stats()
	if live.UniqueProbes != replayed.UniqueProbes || live.RawCalls != replayed.RawCalls || live.Virtual != replayed.Virtual {
		t.Fatalf("stats diverged: live %+v, replayed %+v", live, replayed)
	}
}

// TestReplayerBaseStats replays a trace recorded on an instrument with
// prior history: deltas across the replay must match the live deltas.
func TestReplayerBaseStats(t *testing.T) {
	inst, _ := testInstrument(t)
	inst.GetCurrent(1, 1) // prior history
	inst.GetCurrent(2, 2)
	rec := NewRecorder(inst)
	before := rec.Stats()
	rec.GetCurrent(3, 3)
	rec.GetCurrent(3, 3)
	after := rec.Stats()

	meta := Meta{
		BaseUniqueProbes: rec.Base().UniqueProbes,
		BaseRawCalls:     rec.Base().RawCalls,
		BaseVirtualNS:    int64(rec.Base().Virtual),
	}
	rp := NewReplayer(meta, rec.Samples())
	rpBefore := rp.Stats()
	rp.GetCurrent(3, 3)
	rp.GetCurrent(3, 3)
	rpAfter := rp.Stats()
	if d, rd := after.UniqueProbes-before.UniqueProbes, rpAfter.UniqueProbes-rpBefore.UniqueProbes; d != rd {
		t.Fatalf("unique delta %d, replayed %d", d, rd)
	}
	if d, rd := after.Virtual-before.Virtual, rpAfter.Virtual-rpBefore.Virtual; d != rd {
		t.Fatalf("virtual delta %v, replayed %v", d, rd)
	}
}

func TestReplayerMismatch(t *testing.T) {
	meta := Meta{}
	samples := []Sample{{V: []float64{1, 2}, I: 0.5, Unique: true, VirtualNS: int64(50 * time.Millisecond)}}
	rp := NewReplayer(meta, samples)
	rp.GetCurrent(9, 9)
	if rp.Err() == nil {
		t.Fatal("want voltage-mismatch error")
	}

	rp = NewReplayer(meta, samples)
	rp.GetCurrent(1, 2)
	rp.GetCurrent(1, 2)
	if rp.Err() == nil {
		t.Fatal("want exhaustion error")
	}
}

func TestRecorderSampleShape(t *testing.T) {
	inst, _ := testInstrument(t)
	rec := NewRecorder(inst)
	rec.GetCurrent(0.25, 0.75)
	s := rec.Samples()[0]
	if len(s.V) != 2 || s.V[0] != 0.25 || s.V[1] != 0.75 || !s.Unique || s.VirtualNS == 0 {
		t.Fatalf("sample = %+v", s)
	}
}

// TestReplayerAllocs: replaying a probe allocates nothing, so replay
// stays as cheap per probe as the instrument it stands in for.
func TestReplayerAllocs(t *testing.T) {
	const runs = 1000
	samples := make([]Sample, runs+1) // AllocsPerRun warms up with one extra call
	for i := range samples {
		samples[i] = Sample{V: []float64{0.25, 0.75}, I: 1.5, Unique: i == 0, VirtualNS: int64(i + 1)}
	}
	rp := NewReplayer(Meta{}, samples)
	if allocs := testing.AllocsPerRun(runs, func() { rp.GetCurrent(0.25, 0.75) }); allocs != 0 {
		t.Errorf("GetCurrent: %v allocs/probe, want 0", allocs)
	}
	if rp.Err() != nil || rp.Remaining() != 0 {
		t.Fatalf("replay err=%v remaining=%d", rp.Err(), rp.Remaining())
	}
}

func TestEncodeGateLimit(t *testing.T) {
	if _, err := Encode(Meta{}, []Sample{{V: make([]float64, MaxGates+1)}}); err == nil {
		t.Fatal("want error past MaxGates")
	}
	if _, err := Encode(Meta{}, []Sample{{V: make([]float64, MaxGates)}}); err != nil {
		t.Fatal(err)
	}
}

func TestContentAddressedDedup(t *testing.T) {
	inst, _ := testInstrument(t)
	rec := NewRecorder(inst)
	rec.GetCurrent(1, 1)
	dir := t.TempDir()
	p1, err := Write(dir, Meta{Hash: "h"}, rec.Samples())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Write(dir, Meta{Hash: "h"}, rec.Samples())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("identical traces got different paths: %s, %s", p1, p2)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("%d files, want 1", len(ents))
	}
	paths, err := List(dir)
	if err != nil || len(paths) != 1 || paths[0] != p1 {
		t.Fatalf("List = %v, %v", paths, err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	inst, _ := testInstrument(t)
	rec := NewRecorder(inst)
	for i := 0; i < 50; i++ {
		rec.GetCurrent(float64(i)*0.5, 1)
	}
	buf, err := Encode(Meta{Hash: "h"}, rec.Samples())
	if err != nil {
		t.Fatal(err)
	}
	// A trace is an artifact, not a crash log: any truncation must surface
	// as an error (other than cutting only trailing whole frames cleanly),
	// never a panic.
	for cut := 0; cut < len(buf); cut++ {
		_, samples, err := Decode(buf[:cut])
		if err == nil && len(samples) == len(rec.Samples()) {
			t.Fatalf("cut %d: full trace decoded from truncation", cut)
		}
	}
	if _, _, err := Decode(buf); err != nil {
		t.Fatal(err)
	}
}
