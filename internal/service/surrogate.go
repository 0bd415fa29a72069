package service

// Surrogate twins: the service-side registry of learned digital twins
// (internal/surrogate) and their composition into jobs. A request whose
// target spec sets Surrogate with a positive Threshold probes twin-first:
// the registry's model for that device answers high-confidence probes, the
// rest escalate to the built instrument, and (unless NoLearn) the escalated
// measurements train the twin further. Twin identity is the device, not the
// request — the key hashes the spec with its Surrogate knobs cleared — so
// every kind of job against the same simulated device shares one model, and
// a trace recorded without the twin still trains it (TrainSurrogates).
//
// Surrogate jobs bypass the result cache: their outcome depends on (and
// advances) twin state, like a session job's depends on instrument state.
// With a store attached every twin is journaled after each job under
// store.KindSurrogateModel ("sim/…" and "chain/…" keys — the fleet's twins
// live under "fleet/…" in the same kind), so a restarted service warm-starts
// its twins. With trace recording on, the trace carries the twin snapshot
// taken before extraction (trace.SurrogateMeta): replay rebuilds the same
// Hybrid over the recorded escalated probes and reproduces the result bit
// for bit.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/trace"
)

// twin is one registry entry: the model plus its lifetime serving counters.
// Its mutex is held for the duration of any job probing the twin — two jobs
// against the same device serialize, like they would on the one physical
// device they model.
type twin struct {
	mu          sync.Mutex
	key         string // registry and journal key
	model       *surrogate.Model
	hits        int64
	escalations int64
}

// twinKeyFleetPrefix marks the fleet manager's share of the
// KindSurrogateModel namespace; the service skips it when warm-starting.
const twinKeyFleetPrefix = "fleet/"

// specTwinKey hashes a double-dot spec into its twin key. The Surrogate
// knobs are cleared first: the twin models the device, and changing the
// escalation threshold must not orphan the trained model.
func specTwinKey(spec device.DoubleDotSpec) (string, error) {
	spec.Surrogate = nil
	return twinHash("sim", spec)
}

// chainTwinKey hashes a chain spec, pair index and pair scan window into the
// pair's twin key. A twin's grid is its window, so each window trains its
// own twin. The spec's default window adds nothing to the key, so twins
// journaled under window-less keys still warm-start.
func chainTwinKey(spec device.ChainSpec, pair int, win csd.Window) (string, error) {
	spec.Surrogate = nil
	k, err := twinHash("chain", spec)
	if err != nil {
		return "", err
	}
	k = fmt.Sprintf("%s/%d", k, pair)
	spec.FillDefaults()
	if win == spec.Window() {
		return k, nil
	}
	w, err := twinHash("win", win)
	if err != nil {
		return "", err
	}
	return k + "/" + w, nil
}

func twinHash(prefix string, spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return prefix + "/" + hex.EncodeToString(sum[:8]), nil
}

// acquireTwin locks and returns the twin for key, creating it (or replacing
// a model whose window no longer matches the job's) as needed. The caller
// owns tw.mu until it unlocks.
func (s *Service) acquireTwin(key string, win csd.Window) *twin {
	s.twinMu.Lock()
	tw, ok := s.twins[key]
	if !ok {
		tw = &twin{key: key}
		s.twins[key] = tw
	}
	s.twinMu.Unlock()
	tw.mu.Lock()
	if tw.model == nil || tw.model.Win() != win {
		tw.model = surrogate.New(win)
	}
	return tw
}

// SurrogateReport is the surrogate extension of a Result: how the twin
// split one job's probing. Every field is deterministic in the request and
// the twin snapshot, so replays must reproduce it exactly.
type SurrogateReport struct {
	Key       string  `json:"key"`
	Threshold float64 `json:"threshold"`
	// Hits are probes served by the twin — live probes saved; Escalations
	// fell through to the instrument (Result.Probes counts only those).
	Hits        int `json:"hits"`
	Escalations int `json:"escalations"`
	// Cells and Fitted snapshot the model after the job.
	Cells  int  `json:"cells"`
	Fitted bool `json:"fitted"`
}

// surrogateReport snapshots one hybrid's job accounting.
func surrogateReport(key string, hyb *surrogate.Hybrid) *SurrogateReport {
	return &SurrogateReport{
		Key:         key,
		Threshold:   hyb.Threshold,
		Hits:        hyb.Hits(),
		Escalations: hyb.Escalations(),
		Cells:       hyb.Model.Cells(),
		Fitted:      hyb.Model.Fitted(),
	}
}

// twinFirst reports whether sur asks for twin-first probing.
func twinFirst(sur *device.SurrogateSpec) bool { return sur != nil && sur.Threshold > 0 }

// settleTwin finishes a twin-first stack's job on its twin: refit from
// whatever the job escalated, accumulate the lifetime counters, journal the
// model and return the job's report; nil for a stack without a twin. The
// caller still holds the twin.
func (s *Service) settleTwin(st *probeStack) *SurrogateReport {
	if st.tw == nil {
		return nil
	}
	if st.hyb.Learn {
		// Refit is best-effort: too few cells or no clear transition just
		// leaves the previous fit (or none) in place.
		_ = st.tw.model.Fit()
	}
	rep := surrogateReport(st.tw.key, st.hyb)
	st.tw.hits += int64(rep.Hits)
	st.tw.escalations += int64(rep.Escalations)
	s.persistTwin(st.tw)
	return rep
}

// persistTwin journals a twin's current model. Callers hold tw.mu.
func (s *Service) persistTwin(tw *twin) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(store.KindSurrogateModel, tw.key, tw.model.Encode()); err != nil {
		s.metrics.persistErrs.Inc()
	}
}

// restoreTwins warm-starts the twin registry from the journal's surrogate
// models, skipping the fleet manager's share of the namespace. Unreadable
// models are dropped, not fatal — the twin just retrains.
func (s *Service) restoreTwins(st *store.Store) {
	for _, rec := range st.Records(store.KindSurrogateModel) {
		if strings.HasPrefix(rec.Key, twinKeyFleetPrefix) {
			continue
		}
		model, err := surrogate.Decode(rec.Data)
		if err != nil {
			continue
		}
		s.twins[rec.Key] = &twin{key: rec.Key, model: model}
	}
}

// SurrogateInfo is one twin's listing entry (GET /v1/surrogate).
type SurrogateInfo struct {
	Key     string `json:"key"`
	Cells   int    `json:"cells"`
	Samples int64  `json:"samples"`
	Fitted  bool   `json:"fitted"`
	// Hits and Escalations are lifetime counters across this process's jobs.
	Hits        int64 `json:"hits"`
	Escalations int64 `json:"escalations"`
}

// Surrogates lists the twin registry in key order.
func (s *Service) Surrogates() []SurrogateInfo {
	s.twinMu.Lock()
	keys := make([]string, 0, len(s.twins))
	for k := range s.twins {
		keys = append(keys, k)
	}
	twins := make([]*twin, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		twins = append(twins, s.twins[k])
	}
	s.twinMu.Unlock()
	out := make([]SurrogateInfo, 0, len(keys))
	for i, tw := range twins {
		tw.mu.Lock()
		info := SurrogateInfo{Key: keys[i], Hits: tw.hits, Escalations: tw.escalations}
		if tw.model != nil {
			info.Cells = tw.model.Cells()
			info.Samples = tw.model.Samples()
			info.Fitted = tw.model.Fitted()
		}
		tw.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// SurrogateStats aggregates the twin registry for /v1/stats.
type SurrogateStats struct {
	Models      int   `json:"models"`
	Fitted      int   `json:"fitted"`
	Hits        int64 `json:"hits"`        // probes served by twins (saved)
	Escalations int64 `json:"escalations"` // probes escalated live
}

func (s *Service) surrogateStats() SurrogateStats {
	var st SurrogateStats
	for _, info := range s.Surrogates() {
		st.Models++
		if info.Fitted {
			st.Fitted++
		}
		st.Hits += info.Hits
		st.Escalations += info.Escalations
	}
	return st
}

// TrainSurrogates rebuilds twins from the recorded probe traces under the
// service's trace directory (POST /v1/surrogate/train): every sim-target and
// chain-pair trace feeds its samples into the twin of the device it probed,
// then each touched twin refits and is journaled. Traces recorded without
// surrogate probing are the richest training data — their full rasters fill
// the model in one pass — and twin keys ignore the Surrogate knobs, so those
// traces train the same twin later surrogate jobs serve from. Returns
// samples fed per twin key.
func (s *Service) TrainSurrogates() (map[string]int, error) {
	if s.traceDir == "" {
		return nil, errors.New("service: no trace directory: start with DataDir and RecordTraces")
	}
	paths, err := filepath.Glob(filepath.Join(s.traceDir, "*"+trace.Ext))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	fed := make(map[string]int)
	for _, path := range paths {
		meta, samples, err := trace.Read(path)
		if err != nil {
			continue // unreadable or foreign file: not this trace dir's problem
		}
		var req Request
		if json.Unmarshal(meta.Request, &req) != nil {
			continue
		}
		// The window sizes the twin's grid, and no hash covers it: train
		// only from a trace replay would accept.
		nreq, err := req.Normalized()
		if err != nil || checkTraceWindow(nreq, meta) != nil {
			continue
		}
		var key string
		switch {
		case meta.Pair != nil && nreq.ChainSim != nil:
			key, err = chainTwinKey(*nreq.ChainSim, *meta.Pair, meta.Window)
		case nreq.Sim != nil:
			key, err = specTwinKey(*nreq.Sim)
		default:
			continue // benchmark and session traces have no twin identity
		}
		if err != nil {
			return fed, err
		}
		tw := s.acquireTwin(key, meta.Window)
		for _, sm := range samples {
			if len(sm.V) == 2 {
				tw.model.Add(sm.V[0], sm.V[1], sm.I)
			}
		}
		fed[key] += len(samples)
		_ = tw.model.Fit()
		s.persistTwin(tw)
		tw.mu.Unlock()
	}
	return fed, nil
}
