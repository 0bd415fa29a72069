// Package trace records and replays instrument probe traces. A Recorder
// wraps any instrument and logs every (voltages, time, current) sample; the
// samples are written to a content-addressed trace file; a Replayer serves
// them back bit-identically, so a recorded extraction can be re-executed
// offline — zero live-instrument probes — and must reproduce the same
// virtual-gate matrix byte for byte.
//
// Recording deliberately exposes only the scalar probing interface
// (GetCurrent plus Stats): the batch fast paths are hidden
// from the pipelines, which therefore fall back to per-probe calls. By the
// batch contract of internal/device that fallback is bit-identical to the
// batched paths — same currents, same Stats, same noise realisation — so a
// recorded extraction computes exactly the result an unrecorded one would
// have; it only forgoes the batch-path speed while recording.
//
// Trace files share internal/store's frame codec and FormatVersion: a
// header (magic "FVGT" + version), one JSON meta frame, then binary sample
// frames. The file name is the hex prefix of the SHA-256 of the encoded
// contents, so identical recordings deduplicate on disk.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/store"
)

// Ext is the trace file extension.
const Ext = ".fvgt"

// samplesPerFrame bounds one binary frame; large traces split across frames.
const samplesPerFrame = 1024

// MaxGates bounds a sample's gate-voltage arity, enforced symmetrically by
// Encode and the decoder (which uses it to reject corrupt counts before
// allocating).
const MaxGates = 64

// Sample is one recorded instrument call.
type Sample struct {
	V []float64 // requested gate voltages (2 for double-dot instruments)
	I float64   // measured current
	// Unique marks calls that consumed a new dwell (a memo miss on the
	// underlying instrument); replay uses it to reproduce probe accounting.
	Unique bool
	// VirtualNS is the instrument's virtual clock (ns) after the call.
	VirtualNS int64
}

// Truth carries the ground-truth slopes for scoring a replayed extraction.
type Truth struct {
	Steep   float64 `json:"steep"`
	Shallow float64 `json:"shallow"`
}

// Meta describes a recorded extraction. Request and Result are opaque here
// (they are service-layer JSON) so this package stays below the service in
// the dependency order.
type Meta struct {
	Hash    string          `json:"hash"`              // canonical request hash
	Request json.RawMessage `json:"request,omitempty"` // normalized service request
	Result  json.RawMessage `json:"result,omitempty"`  // recorded service result
	Window  csd.Window      `json:"window"`
	Truth   *Truth          `json:"truth,omitempty"`
	// Pair, when set, marks a chain job's per-pair trace: Request is the
	// full chain request, Result the recorded PairResult of this pair, and
	// replay re-executes only this pair's escalation ladder.
	Pair *int `json:"pair,omitempty"`
	// Base is the wrapped instrument's accounting when recording began;
	// replay starts from it so before/after deltas reproduce exactly even
	// for instruments with prior history (session devices).
	BaseUniqueProbes int   `json:"baseUniqueProbes,omitempty"`
	BaseRawCalls     int   `json:"baseRawCalls,omitempty"`
	BaseVirtualNS    int64 `json:"baseVirtualNS,omitempty"`
	// Surrogate, when set, records that a surrogate.Hybrid sat between the
	// pipeline and the Recorder, so the sample stream holds only the
	// escalated probes; replay rebuilds the same Hybrid from the snapshot.
	Surrogate *SurrogateMeta `json:"surrogate,omitempty"`
}

// SurrogateMeta captures the surrogate composition active while recording:
// the twin's encoded snapshot as of recording start plus the escalation
// knobs. Rebuilding the same Hybrid over a Replayer reproduces the same
// serve/escalate decisions — the twin's evolution is deterministic in the
// escalated currents, which the trace holds — so surrogate extractions
// replay bit-identically.
type SurrogateMeta struct {
	Model     []byte  `json:"model"` // surrogate.Model.Encode at recording start
	Threshold float64 `json:"threshold"`
	Learn     bool    `json:"learn,omitempty"`
}

// Recorder wraps a device.Metered instrument, recording every GetCurrent
// call. It implements the same contract and intentionally nothing more —
// see the package comment for why hiding the batch interfaces is sound.
type Recorder struct {
	inst    device.Metered
	base    device.Stats
	last    device.Stats
	samples []Sample
}

// NewRecorder returns a recorder over inst.
func NewRecorder(inst device.Metered) *Recorder {
	st := inst.Stats()
	return &Recorder{inst: inst, base: st, last: st}
}

// GetCurrent probes the wrapped instrument and records the sample.
func (r *Recorder) GetCurrent(v1, v2 float64) float64 {
	i := r.inst.GetCurrent(v1, v2)
	after := r.inst.Stats()
	r.samples = append(r.samples, Sample{
		V:         []float64{v1, v2},
		I:         i,
		Unique:    after.UniqueProbes > r.last.UniqueProbes,
		VirtualNS: int64(after.Virtual),
	})
	r.last = after
	return i
}

// Stats delegates to the wrapped instrument.
func (r *Recorder) Stats() device.Stats { return r.inst.Stats() }

// Samples returns the recorded samples (shared, not copied).
func (r *Recorder) Samples() []Sample { return r.samples }

// Base returns the wrapped instrument's accounting at recording start.
func (r *Recorder) Base() device.Stats { return r.base }

// Replayer serves a recorded sample stream back as an Instrument. Probes
// must arrive in recorded order with exactly the recorded voltages — the
// pipelines are deterministic, so a faithful re-execution does — and each
// returns the recorded current while replaying the recorded accounting. A
// mismatch or exhaustion latches an error (GetCurrent cannot return one);
// check Err after the run. It never touches a live instrument.
type Replayer struct {
	samples []Sample
	pos     int
	stats   device.Stats
	err     error
}

// NewReplayer builds a replayer starting from meta's base accounting.
func NewReplayer(meta Meta, samples []Sample) *Replayer {
	return &Replayer{
		samples: samples,
		stats: device.Stats{
			UniqueProbes: meta.BaseUniqueProbes,
			RawCalls:     meta.BaseRawCalls,
			Virtual:      time.Duration(meta.BaseVirtualNS),
		},
	}
}

// GetCurrent implements device.Instrument over the recorded stream.
func (p *Replayer) GetCurrent(v1, v2 float64) float64 {
	if p.err != nil {
		return 0
	}
	if p.pos >= len(p.samples) {
		p.err = fmt.Errorf("trace: exhausted after %d samples (extra probe at %v)", len(p.samples), []float64{v1, v2})
		return 0
	}
	s := p.samples[p.pos]
	if len(s.V) != 2 {
		p.err = fmt.Errorf("trace: probe %d mismatch: requested 2 gates, recorded %d", p.pos, len(s.V))
		return 0
	}
	if s.V[0] != v1 || s.V[1] != v2 {
		p.err = fmt.Errorf("trace: probe %d mismatch: requested %v, recorded %v", p.pos, []float64{v1, v2}, s.V)
		return 0
	}
	p.pos++
	p.stats.RawCalls++
	if s.Unique {
		p.stats.UniqueProbes++
	}
	p.stats.Virtual = time.Duration(s.VirtualNS)
	return s.I
}

// Stats implements the accounting side of the Instrument contract.
func (p *Replayer) Stats() device.Stats { return p.stats }

// Err returns the first replay divergence, if any.
func (p *Replayer) Err() error { return p.err }

// Consumed returns how many samples have been served.
func (p *Replayer) Consumed() int { return p.pos }

// Remaining returns how many recorded samples were never requested.
func (p *Replayer) Remaining() int { return len(p.samples) - p.pos }

// Encode renders a complete trace file (header, meta frame, sample frames).
func Encode(meta Meta, samples []Sample) ([]byte, error) {
	for i, s := range samples {
		if len(s.V) > MaxGates {
			return nil, fmt.Errorf("trace: sample %d has %d gate voltages, limit %d", i, len(s.V), MaxGates)
		}
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	buf := store.AppendFileHeader(nil, store.TraceMagic)
	buf = store.AppendFrame(buf, mb)
	for off := 0; off < len(samples); off += samplesPerFrame {
		end := off + samplesPerFrame
		if end > len(samples) {
			end = len(samples)
		}
		buf = store.AppendFrame(buf, appendSamples(nil, samples[off:end]))
	}
	return buf, nil
}

func appendSamples(buf []byte, samples []Sample) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(samples)))
	for _, s := range samples {
		buf = binary.AppendUvarint(buf, uint64(len(s.V)))
		for _, v := range s.V {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.I))
		flags := byte(0)
		if s.Unique {
			flags = 1
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(s.VirtualNS))
	}
	return buf
}

func decodeSamples(p []byte, out []Sample) ([]Sample, error) {
	torn := func() ([]Sample, error) { return nil, fmt.Errorf("trace: %w: sample frame", store.ErrTorn) }
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return torn()
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		nv, n := binary.Uvarint(p)
		if n <= 0 || nv > MaxGates {
			return torn()
		}
		p = p[n:]
		if len(p) < int(nv+1)*8+1 {
			return torn()
		}
		s := Sample{V: make([]float64, nv)}
		for j := range s.V {
			s.V[j] = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
		s.I = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		s.Unique = p[0]&1 != 0
		p = p[1:]
		ns, n := binary.Uvarint(p)
		if n <= 0 {
			return torn()
		}
		s.VirtualNS = int64(ns)
		p = p[n:]
		out = append(out, s)
	}
	if len(p) != 0 {
		return torn()
	}
	return out, nil
}

// Write encodes the trace and writes it content-addressed under dir: the
// file name is the hex prefix of the SHA-256 of the encoded bytes, written
// via a temp file + rename so readers never observe a partial trace.
// Returns the final path.
func Write(dir string, meta Meta, samples []Sample) (string, error) {
	buf, err := Encode(meta, samples)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	sum := sha256.Sum256(buf)
	path := filepath.Join(dir, hex.EncodeToString(sum[:12])+Ext)
	if _, err := os.Stat(path); err == nil {
		return path, nil // content-addressed: identical recording already on disk
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}

// Decode parses an encoded trace.
func Decode(b []byte) (Meta, []Sample, error) {
	rest, err := store.CheckFileHeader(b, store.TraceMagic)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("trace: %w", err)
	}
	mb, rest, err := store.NextFrame(rest)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("trace: %w", err)
	}
	if mb == nil {
		return Meta{}, nil, errors.New("trace: missing meta frame")
	}
	var meta Meta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("trace: meta: %w", err)
	}
	var samples []Sample
	for {
		payload, next, err := store.NextFrame(rest)
		if err != nil {
			return Meta{}, nil, fmt.Errorf("trace: %w", err)
		}
		if payload == nil {
			return meta, samples, nil
		}
		if samples, err = decodeSamples(payload, samples); err != nil {
			return Meta{}, nil, err
		}
		rest = next
	}
}

// Read loads a trace file.
func Read(path string) (Meta, []Sample, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("trace: %w", err)
	}
	return Decode(b)
}

// List returns the trace files under dir, sorted by name. A missing
// directory lists empty.
func List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == Ext {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}
