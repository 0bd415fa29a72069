package service

// Persistence glue and offline replay. A durable service journals every
// fresh cacheable result as a cacheRecord (the normalized request plus its
// result, so the extraction can be re-executed from the journal alone) and,
// when trace recording is on, writes a probe trace per executed extraction.
// ReplayTrace re-executes a trace against the recorded samples — zero
// live-instrument probes — and ReplayJournal re-executes journaled requests
// against fresh instruments; both diff the reproduced result against the
// recorded one field by field, requiring bit-identical floats.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/fastvg/fastvg/internal/chainx"
	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/qflow"
	"github.com/fastvg/fastvg/internal/store"
	"github.com/fastvg/fastvg/internal/surrogate"
	"github.com/fastvg/fastvg/internal/trace"
)

// cacheRecord is the journal form of one result-cache entry.
type cacheRecord struct {
	Request Request `json:"request"`
	Result  *Result `json:"result"`
}

// persistResult journals a fresh cacheable result. Chain results
// additionally journal one KindChainPair record per pair (keyed
// "<hash>/<pair>"), so individual pair matrices are addressable in the
// journal. Failures are counted, not propagated: the in-memory result is
// correct regardless.
func (s *Service) persistResult(nreq Request, hash string, res *Result) {
	data, err := json.Marshal(cacheRecord{Request: nreq, Result: res})
	if err == nil {
		err = s.store.Put(store.KindCacheEntry, hash, data)
	}
	if err != nil {
		s.metrics.persistErrs.Inc()
	}
	if res.Chain == nil {
		return
	}
	for i := range res.Chain.Pairs {
		data, err := json.Marshal(&res.Chain.Pairs[i])
		if err == nil {
			err = s.store.Put(store.KindChainPair, fmt.Sprintf("%s/%d", hash, i), data)
		}
		if err != nil {
			s.metrics.persistErrs.Inc()
		}
	}
}

// writeTrace writes the probe trace st recorded, if it recorded one: result
// is the job's Result, or with pair set a chain pair's PairResult. The
// caller passes the identity the replay needs; the stack adds its base
// accounting and twin snapshot.
func (s *Service) writeTrace(st *probeStack, nreq Request, hash string, win csd.Window, truth *qflow.Truth, pair *int, result any) error {
	if st.rec == nil {
		return nil
	}
	reqJSON, err := json.Marshal(nreq)
	if err != nil {
		return err
	}
	resJSON, err := json.Marshal(result)
	if err != nil {
		return err
	}
	base := st.rec.Base()
	meta := trace.Meta{
		Hash:             hash,
		Request:          reqJSON,
		Result:           resJSON,
		Window:           win,
		Pair:             pair,
		Surrogate:        st.snap,
		BaseUniqueProbes: base.UniqueProbes,
		BaseRawCalls:     base.RawCalls,
		BaseVirtualNS:    int64(base.Virtual),
	}
	if truth != nil {
		meta.Truth = &trace.Truth{Steep: truth.SteepSlope, Shallow: truth.ShallowSlope}
	}
	_, err = trace.Write(s.traceDir, meta, st.rec.Samples())
	return err
}

// ReplayOutcome is the result of re-executing one recorded extraction.
type ReplayOutcome struct {
	Source string `json:"source"` // trace path, or "journal:<hash>"
	Kind   Kind   `json:"kind"`
	Hash   string `json:"hash"`
	// Pair marks a chain job's per-pair trace replay (the pair index).
	Pair *int `json:"pair,omitempty"`
	// Skipped marks entries that cannot replay offline (session targets in
	// the journal: their instrument state lived in the dead process).
	Skipped    bool   `json:"skipped,omitempty"`
	SkipReason string `json:"skipReason,omitempty"`
	// Match is true when the reproduced result is identical to the recorded
	// one on every comparable field (bit-identical floats) and, for traces,
	// the replay consumed the recorded samples exactly.
	Match bool     `json:"match"`
	Diffs []string `json:"diffs,omitempty"`
	// ReplayErr reports a trace divergence: a probe the recording never
	// made, or recorded samples the re-execution never requested.
	ReplayErr string `json:"replayErr,omitempty"`
	// LiveProbes counts probes against a live instrument during the replay:
	// always 0 for trace replays (the replayer serves recorded samples),
	// and the re-execution's own probe count for journal replays.
	LiveProbes int     `json:"liveProbes"`
	Recorded   *Result `json:"recorded,omitempty"`
	Reproduced *Result `json:"reproduced,omitempty"`
	// RecordedPair and ReproducedPair stand in for Recorded and Reproduced
	// on a chain-pair trace, whose result is one pair's.
	RecordedPair   *chainx.PairResult `json:"recordedPair,omitempty"`
	ReproducedPair *chainx.PairResult `json:"reproducedPair,omitempty"`
}

// RecordedProbes is the recorded extraction's probe count: the job's, or
// the chain pair's for a pair trace.
func (o *ReplayOutcome) RecordedProbes() int {
	switch {
	case o.Recorded != nil:
		return o.Recorded.Probes
	case o.RecordedPair != nil:
		return o.RecordedPair.Probes
	}
	return 0
}

// fdiff reports a float field difference requiring bit-identity, so +0/-0
// and NaN patterns are compared exactly, not numerically.
func fdiff(diffs []string, name string, got, want float64) []string {
	if math.Float64bits(got) != math.Float64bits(want) {
		return append(diffs, fmt.Sprintf("%s: %v != recorded %v", name, got, want))
	}
	return diffs
}

// CompareResults diffs a reproduced result against the recorded one over
// every deterministic field — the matrix (bit-identical floats), probe and
// virtual-time accounting, scoring and pipeline error — ignoring wall-clock
// compute time and the per-retrieval Cached flag. Empty means identical.
func CompareResults(reproduced, recorded *Result) []string {
	var diffs []string
	if reproduced.Kind != recorded.Kind {
		diffs = append(diffs, fmt.Sprintf("kind: %s != recorded %s", reproduced.Kind, recorded.Kind))
	}
	if reproduced.Error != recorded.Error {
		diffs = append(diffs, fmt.Sprintf("error: %q != recorded %q", reproduced.Error, recorded.Error))
	}
	diffs = fdiff(diffs, "steepSlope", reproduced.SteepSlope, recorded.SteepSlope)
	diffs = fdiff(diffs, "shallowSlope", reproduced.ShallowSlope, recorded.ShallowSlope)
	diffs = fdiff(diffs, "a12", reproduced.A12, recorded.A12)
	diffs = fdiff(diffs, "a21", reproduced.A21, recorded.A21)
	diffs = fdiff(diffs, "tripleV1", reproduced.TripleV1, recorded.TripleV1)
	diffs = fdiff(diffs, "tripleV2", reproduced.TripleV2, recorded.TripleV2)
	if reproduced.Probes != recorded.Probes {
		diffs = append(diffs, fmt.Sprintf("probes: %d != recorded %d", reproduced.Probes, recorded.Probes))
	}
	diffs = fdiff(diffs, "experimentS", reproduced.ExperimentS, recorded.ExperimentS)
	if reproduced.Scored != recorded.Scored || reproduced.Success != recorded.Success {
		diffs = append(diffs, fmt.Sprintf("scoring: %v/%v != recorded %v/%v",
			reproduced.Scored, reproduced.Success, recorded.Scored, recorded.Success))
	}
	if (reproduced.Window == nil) != (recorded.Window == nil) {
		diffs = append(diffs, "window presence differs")
	} else if reproduced.Window != nil && *reproduced.Window != *recorded.Window {
		diffs = append(diffs, "window differs")
	}
	if (reproduced.Verify == nil) != (recorded.Verify == nil) {
		diffs = append(diffs, "verify presence differs")
	} else if reproduced.Verify != nil && *reproduced.Verify != *recorded.Verify {
		diffs = append(diffs, "verify report differs")
	}
	if (reproduced.Chain == nil) != (recorded.Chain == nil) {
		diffs = append(diffs, "chain presence differs")
	} else if reproduced.Chain != nil {
		diffs = append(diffs, compareChainReports(reproduced.Chain, recorded.Chain)...)
	}
	if (reproduced.Surrogate == nil) != (recorded.Surrogate == nil) {
		diffs = append(diffs, "surrogate presence differs")
	} else if reproduced.Surrogate != nil && *reproduced.Surrogate != *recorded.Surrogate {
		diffs = append(diffs, fmt.Sprintf("surrogate report: %+v != recorded %+v", *reproduced.Surrogate, *recorded.Surrogate))
	}
	return diffs
}

// compareChainReports diffs two chain reports pair by pair, requiring
// bit-identical matrices and identical escalation paths.
func compareChainReports(got, want *ChainReport) []string {
	var diffs []string
	if got.Dots != want.Dots || len(got.Pairs) != len(want.Pairs) {
		return append(diffs, fmt.Sprintf("chain shape: %d dots/%d pairs != recorded %d/%d",
			got.Dots, len(got.Pairs), want.Dots, len(want.Pairs)))
	}
	if got.BudgetDenied != want.BudgetDenied {
		diffs = append(diffs, fmt.Sprintf("chain budgetDenied: %d != recorded %d", got.BudgetDenied, want.BudgetDenied))
	}
	for i := range got.Pairs {
		diffs = append(diffs, ComparePairResults(&got.Pairs[i], &want.Pairs[i])...)
	}
	for i := range got.A12 {
		if i < len(want.A12) {
			diffs = fdiff(diffs, fmt.Sprintf("chain a12[%d]", i), got.A12[i], want.A12[i])
			diffs = fdiff(diffs, fmt.Sprintf("chain a21[%d]", i), got.A21[i], want.A21[i])
		}
	}
	if len(got.A12) != len(want.A12) {
		diffs = append(diffs, fmt.Sprintf("chain composed length: %d != recorded %d", len(got.A12), len(want.A12)))
	}
	if len(got.Surrogate) != len(want.Surrogate) {
		diffs = append(diffs, fmt.Sprintf("chain surrogate reports: %d != recorded %d", len(got.Surrogate), len(want.Surrogate)))
	} else {
		for i := range got.Surrogate {
			if got.Surrogate[i] != want.Surrogate[i] {
				diffs = append(diffs, fmt.Sprintf("chain surrogate[%d]: %+v != recorded %+v", i, got.Surrogate[i], want.Surrogate[i]))
			}
		}
	}
	return diffs
}

// ComparePairResults diffs one reproduced chain pair against the recorded
// one over every deterministic field. Empty means identical.
func ComparePairResults(got, want *chainx.PairResult) []string {
	var diffs []string
	p := func(name string) string { return fmt.Sprintf("pair %d %s", want.Pair, name) }
	if got.Pair != want.Pair {
		diffs = append(diffs, fmt.Sprintf("pair index %d != recorded %d", got.Pair, want.Pair))
	}
	if got.Method != want.Method {
		diffs = append(diffs, fmt.Sprintf("%s: %q != recorded %q", p("method"), got.Method, want.Method))
	}
	if got.Error != want.Error {
		diffs = append(diffs, fmt.Sprintf("%s: %q != recorded %q", p("error"), got.Error, want.Error))
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			diffs = fdiff(diffs, p(fmt.Sprintf("matrix[%d][%d]", r, c)), got.Matrix[r][c], want.Matrix[r][c])
		}
	}
	diffs = fdiff(diffs, p("steepSlope"), got.SteepSlope, want.SteepSlope)
	diffs = fdiff(diffs, p("shallowSlope"), got.ShallowSlope, want.ShallowSlope)
	if got.Probes != want.Probes {
		diffs = append(diffs, fmt.Sprintf("%s: %d != recorded %d", p("probes"), got.Probes, want.Probes))
	}
	diffs = fdiff(diffs, p("experimentS"), got.ExperimentS, want.ExperimentS)
	if len(got.Attempts) != len(want.Attempts) {
		diffs = append(diffs, fmt.Sprintf("%s: %d != recorded %d", p("attempts"), len(got.Attempts), len(want.Attempts)))
	} else {
		for i := range got.Attempts {
			if got.Attempts[i] != want.Attempts[i] {
				diffs = append(diffs, fmt.Sprintf("%s differs: %+v != recorded %+v", p(fmt.Sprintf("attempt %d", i)), got.Attempts[i], want.Attempts[i]))
			}
		}
	}
	return diffs
}

// ReplayTrace re-executes the extraction recorded in the trace file at
// path: the recorded request runs through the same pipeline code against a
// replayer serving the recorded probe samples, with zero live-instrument
// probes, and the reproduced result must come back byte-identical. A chain
// pair's trace re-runs that pair's escalation ladder and compares its
// PairResult.
func ReplayTrace(path string) (*ReplayOutcome, error) {
	meta, samples, err := trace.Read(path)
	if err != nil {
		return nil, err
	}
	var req Request
	if err := json.Unmarshal(meta.Request, &req); err != nil {
		return nil, fmt.Errorf("service: trace request: %w", err)
	}
	// The request comes from a file: normalise it, which validates it, and
	// require that it is the (already normalized) request the trace recorded.
	nreq, err := req.Normalized()
	if err != nil {
		return nil, fmt.Errorf("service: trace request: %w", err)
	}
	if hash, err := hashNormalized(nreq); err != nil || hash != meta.Hash {
		return nil, fmt.Errorf("service: trace %s: request does not hash to the recorded %q", path, meta.Hash)
	}
	if err := checkTraceWindow(nreq, meta); err != nil {
		return nil, fmt.Errorf("service: trace %s: %w", path, err)
	}
	// A twin-first trace holds only the escalated probes: rebuild the same
	// Hybrid over the recorded twin snapshot so every serve/escalate decision
	// replays identically and the replayer sees exactly the recorded stream.
	rp := trace.NewReplayer(meta, samples)
	var inst device.Metered = rp
	var hyb *surrogate.Hybrid
	if meta.Surrogate != nil {
		model, err := surrogate.Decode(meta.Surrogate.Model)
		if err != nil {
			return nil, fmt.Errorf("service: trace surrogate model: %w", err)
		}
		hyb = &surrogate.Hybrid{Model: model, Inner: rp, Threshold: meta.Surrogate.Threshold, Learn: meta.Surrogate.Learn}
		inst = hyb
	}
	ctx := context.Background()
	out := &ReplayOutcome{Source: path, Kind: nreq.Kind, Hash: meta.Hash, Pair: meta.Pair}
	if meta.Pair != nil {
		var recorded chainx.PairResult
		if err := json.Unmarshal(meta.Result, &recorded); err != nil {
			return nil, fmt.Errorf("service: trace pair result: %w", err)
		}
		pres, err := chainx.ExtractPair(ctx, *meta.Pair, inst, meta.Window, chainConfig(ctx, nreq))
		if err != nil {
			return nil, err
		}
		out.RecordedPair, out.ReproducedPair = &recorded, pres
		out.Diffs = ComparePairResults(pres, &recorded)
	} else {
		var recorded Result
		if err := json.Unmarshal(meta.Result, &recorded); err != nil {
			return nil, fmt.Errorf("service: trace result: %w", err)
		}
		var truth *qflow.Truth
		if meta.Truth != nil {
			truth = &qflow.Truth{SteepSlope: meta.Truth.Steep, ShallowSlope: meta.Truth.Shallow}
		}
		res := &Result{Kind: nreq.Kind, Benchmark: nreq.Benchmark, Session: nreq.Session, Hash: meta.Hash}
		if err := runPipelines(ctx, nreq, inst, meta.Window, truth, res); err != nil {
			return nil, err
		}
		if hyb != nil && nreq.Sim != nil {
			// Mirror settleTwin's post-job refit so Cells/Fitted reproduce.
			if hyb.Learn {
				_ = hyb.Model.Fit()
			}
			key, err := specTwinKey(*nreq.Sim)
			if err != nil {
				return nil, err
			}
			res.Surrogate = surrogateReport(key, hyb)
		}
		out.Recorded, out.Reproduced = &recorded, res
		out.Diffs = CompareResults(res, &recorded)
	}
	if err := rp.Err(); err != nil {
		out.ReplayErr = err.Error()
	} else if rem := rp.Remaining(); rem != 0 {
		out.ReplayErr = fmt.Sprintf("trace: %d recorded samples never replayed", rem)
	}
	out.Match = len(out.Diffs) == 0 && out.ReplayErr == ""
	return out, nil
}

// checkTraceWindow refuses a trace window replay must not size grids by:
// no hash covers it. A benchmark, sim or chain-pair request fixes the
// window, so the trace's must equal it; a session request does not, so the
// trace's must be a valid window within device.MaxPixels on each axis.
func checkTraceWindow(nreq Request, meta trace.Meta) error {
	var want csd.Window
	switch {
	case meta.Pair != nil:
		if nreq.Kind != KindChain {
			return errors.New("pair index on a non-chain request")
		}
		if p := *meta.Pair; p < 0 || p >= len(nreq.Chain.Windows) {
			return fmt.Errorf("pair %d outside the %d-dot chain", p, nreq.ChainSim.Dots)
		}
		want = nreq.Chain.Windows[*meta.Pair]
	case nreq.Kind == KindChain:
		return errors.New("chain request without a pair index")
	case nreq.Benchmark != 0:
		suite, err := qflow.Suite()
		if err != nil {
			return err
		}
		want = suite[nreq.Benchmark-1].Window
	case nreq.Sim != nil:
		want = nreq.Sim.Window()
	default:
		w := meta.Window
		if err := w.Validate(); err != nil {
			return err
		}
		if w.Cols > device.MaxPixels || w.Rows > device.MaxPixels {
			return fmt.Errorf("session window %dx%d exceeds %d pixels", w.Cols, w.Rows, device.MaxPixels)
		}
		return nil
	}
	if meta.Window != want {
		return fmt.Errorf("window %+v is not the request's %+v", meta.Window, want)
	}
	return nil
}

// ReplayJournal re-executes every extraction journaled under dir against
// fresh instruments (simulated offline — no cache, no prior state) and
// diffs each reproduced result against the recorded one. Session-target
// entries are skipped: their instrument state lived in the recording
// process. The journal is opened with the usual crash recovery.
func ReplayJournal(ctx context.Context, dir string, workers int) ([]ReplayOutcome, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	recs := st.Records(store.KindCacheEntry)
	if err := st.Close(); err != nil {
		return nil, err
	}
	svc, err := New(Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	defer svc.Close(context.WithoutCancel(ctx))
	out := make([]ReplayOutcome, 0, len(recs))
	for _, rec := range recs {
		o := ReplayOutcome{Source: "journal:" + rec.Key, Hash: rec.Key}
		var cr cacheRecord
		if err := json.Unmarshal(rec.Data, &cr); err != nil || cr.Result == nil {
			o.Skipped = true
			o.SkipReason = "unreadable journal entry"
			out = append(out, o)
			continue
		}
		o.Kind = cr.Request.Kind
		o.Recorded = cr.Result
		if cr.Request.Session != "" {
			o.Skipped = true
			o.SkipReason = "session target: instrument state not reproducible offline"
			out = append(out, o)
			continue
		}
		res, err := svc.Run(ctx, cr.Request)
		if err != nil {
			return out, err
		}
		o.Reproduced = res
		o.LiveProbes = res.Probes
		o.Diffs = CompareResults(res, cr.Result)
		o.Match = len(o.Diffs) == 0
		out = append(out, o)
	}
	return out, nil
}
