package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/shard"
	"github.com/fastvg/fastvg/internal/store"
)

// hotShards is hot-repeat's shard count.
const hotShards = 2

// hotRepeat: Zipf draws from a working set a 2-shard daemon has cached in
// its journal, so every op is a cache hit. Pipelines do nothing; the front
// door does everything: JSON, canonicalisation at the router and again at
// the shard, ring routing and the LRU lookup. The working set fits the
// per-shard cache by design, the opposite of cold-mix.
type hotRepeat struct {
	seq      *opSeq
	dataDir  string
	computed []*opResult // the working set as computed while populating
	seen     []*hotItem  // by item index, per pass

	// traced pass
	cluster *shard.Cluster
	apiOver [][]float64
	warmMS  float64
}

// hotItem is the first reply a pass saw for one working-set entry; every
// later hit must return the same bytes.
type hotItem struct {
	mu   sync.Mutex
	body []byte
	r    *opResult
}

func (w *hotRepeat) opsPerSecond() float64 { return 11000 }
func (w *hotRepeat) clients(nproc int) int { return nproc }

func (w *hotRepeat) generate(seed uint64, n, clients int) (*opSeq, error) {
	seq, err := hotRepeatSeq(seed, n, clients)
	w.seq = seq
	return seq, err
}

// prepare computes the whole working set on a 2-shard daemon, untimed,
// and drains it, so its journals hold every result.
func (w *hotRepeat) prepare(b *bench) error {
	w.dataDir = b.path("hot-data")
	srv, err := w.launch(b, "vgxd-populate.log")
	if err != nil {
		return err
	}
	d := newEndpoint(srv.base, 1)
	defer d.close()
	w.computed = make([]*opResult, len(w.seq.Items))
	const chunk = 32
	for lo := 0; lo < len(w.seq.Items); lo += chunk {
		hi := min(lo+chunk, len(w.seq.Items))
		reqs := make([]service.Request, 0, hi-lo)
		for i := lo; i < hi; i++ {
			reqs = append(reqs, *w.seq.Items[i].Req)
		}
		body, err := json.Marshal(map[string]any{"requests": reqs})
		if err != nil {
			return err
		}
		var resp batchResponse
		if err := d.postJSON(b.ctx, "/v1/batch", body, &resp); err != nil {
			return err
		}
		if len(resp.Items) != hi-lo {
			return fmt.Errorf("populate: %d items for %d requests", len(resp.Items), hi-lo)
		}
		for k, bi := range resp.Items {
			r, v, msg := checkItem(&w.seq.Items[lo+k], bi.Result, bi.Error)
			if v != opOK {
				return fmt.Errorf("populate: %s", msg)
			}
			w.computed[lo+k] = r
		}
	}
	return srv.stop()
}

// setUp restarts the daemon over the populated journals: replay and cache
// warm start on both shards.
func (w *hotRepeat) setUp(b *bench, k int) (*server, error) {
	return w.launch(b, fmt.Sprintf("vgxd-%d.log", k))
}

// launch starts a sharded daemon over the working set's data directory.
func (w *hotRepeat) launch(b *bench, logName string) (*server, error) {
	return b.start(logName, "-shards", strconv.Itoa(hotShards), "-data-dir", w.dataDir)
}

func (w *hotRepeat) beginPass() {
	w.seen = make([]*hotItem, len(w.seq.Items))
	for i := range w.seen {
		w.seen[i] = &hotItem{}
	}
}

func (w *hotRepeat) check(o op, body []byte) (verdict, string) {
	s := w.seen[o.Item]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.body != nil {
		if bytes.Equal(s.body, body) {
			return opOK, ""
		}
		return opWrong, fmt.Sprintf("%s: reply differs from an earlier hit on the same request", w.seq.Items[o.Item].Label)
	}
	r, v, msg := checkBatch(&w.seq.Items[o.Item], body)
	if v == opOK {
		s.body = append([]byte(nil), body...)
		s.r = r
	}
	return v, msg
}

func (w *hotRepeat) finish(b *bench, ph *phase) (string, error) {
	rep := b.rep
	var probes int64
	var dwell float64
	var success int
	for i, o := range ph.outs {
		if o.v != opOK {
			continue
		}
		r := w.seen[w.seq.Ops[i].Item].r
		probes += int64(r.res.Probes)
		dwell += r.res.ExperimentS
		if r.res.Success {
			success++
		}
	}
	ops := float64(ph.okOps)
	rep.set("probes_per_op", ratio(float64(probes), ops))
	rep.set("dwell_s_per_op", ratio(dwell, ops))
	rep.set("success_rate", ratio(float64(success), ops))

	a, z := ph.before.stats, ph.after.stats
	misses := z.Cache.Misses - a.Cache.Misses
	served := z.Cache.Hits + z.Cache.Coalesced - a.Cache.Hits - a.Cache.Coalesced
	rep.check("hot-hits", misses == 0 && served == int64(ph.okOps),
		"cache misses %d, hits %d for %d ops", misses, served, ph.okOps)
	stale := 0
	for i, s := range w.seen {
		if s.r != nil && canonicalDigest(s.r.raw) != canonicalDigest(w.computed[i].raw) {
			stale++
		}
	}
	rep.check("warm-start-results", stale == 0, "%d cached results differ from the computed ones", stale)

	var per []float64
	for i, sh := range z.Shards {
		if sh == nil || i >= len(a.Shards) || a.Shards[i] == nil {
			continue
		}
		per = append(per, float64(lookups(sh.Cache)-lookups(a.Shards[i].Cache)))
	}
	maxL, sum := 0.0, 0.0
	for _, v := range per {
		maxL = max(maxL, v)
		sum += v
	}
	rep.set("shard.imbalance", ratio(maxL, ratio(sum, float64(len(per)))))
	reportServiceCounters(rep, ph, rep.prov.VgxdWorkers)
	w.reportTable1(rep)
	return w.digest(), nil
}

// reportTable1 derives the paper's Table-1 figures from the 24 Table-1
// results in the working set (items 0..23: fast then baseline, per CSD).
func (w *hotRepeat) reportTable1(rep *report) {
	var fastOK, baseOK int
	var pct, speedups []float64
	for i := 0; i+1 < 2*service.SuiteSize; i += 2 {
		fast, base := w.computed[i].res, w.computed[i+1].res
		if fast.Success {
			fastOK++
		}
		if base.Success {
			baseOK++
		}
		pct = append(pct, fast.ProbePct)
		speedups = append(speedups, ratio(base.ExperimentS, fast.ExperimentS))
	}
	rep.set("table1.fast_success", float64(fastOK))
	rep.set("table1.baseline_success", float64(baseOK))
	rep.set("table1.fast_probe_pct", mean(pct))
	rep.set("table1.dwell_speedup", median(speedups))
	sort.Float64s(speedups)
	rep.note("table1 fast %d/12, baseline %d/12, dwell speedup range %.2fx-%.2fx",
		fastOK, baseOK, speedups[0], speedups[len(speedups)-1])
}

// digest hashes the pass's results in op order.
func (w *hotRepeat) digest() string {
	per := make([][32]byte, len(w.seen))
	for i, s := range w.seen {
		if s.r != nil {
			per[i] = canonicalDigest(s.r.raw)
		}
	}
	h := sha256.New()
	for _, o := range w.seq.Ops {
		if w.seen[o.Item].r == nil {
			h.Write([]byte("-"))
			continue
		}
		h.Write(per[o.Item][:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// traceSetUp restarts the daemon over the populated journals and opens an
// in-process cluster over a copy of them; a second copy times store.Open.
func (w *hotRepeat) traceSetUp(b *bench) (*server, error) {
	srv, err := w.launch(b, "vgxd-traced.log")
	if err != nil {
		return nil, err
	}
	warm, inproc := b.path("hot-warm"), b.path("hot-inproc")
	for _, dst := range []string{warm, inproc} {
		if err := copyDir(w.dataDir, dst); err != nil {
			return nil, err
		}
	}
	var opens []float64
	for rep := 0; rep < 5; rep++ {
		total := time.Duration(0)
		for i := 0; i < hotShards; i++ {
			t0 := time.Now()
			st, err := store.Open(shard.ShardDir(warm, i), store.Options{})
			total += time.Since(t0)
			if err != nil {
				return nil, err
			}
			if err := st.Close(); err != nil {
				return nil, err
			}
		}
		opens = append(opens, float64(total))
	}
	w.warmMS = median(opens) / 1e6
	cluster, _, err := shard.Open(shard.Config{Shards: hotShards, DataDir: inproc})
	if err != nil {
		return nil, err
	}
	w.cluster = cluster
	w.apiOver = make([][]float64, b.clients)
	return srv, nil
}

// layers replays op o in process: canonicalisation as router and shard do
// it, ring placement, and the cluster's Batch on the cached request.
func (w *hotRepeat) layers(c int, o op, rec *recorder, opSpan int32, rtt time.Duration) {
	req := *w.seq.Items[o.Item].Req
	var key string
	rec.timed(o.Index, opSpan, "service.canon", func() {
		key, _ = req.RouteKey()
		_, _ = req.Hash()
	})
	rec.timed(o.Index, opSpan, "shard.route", func() { _ = w.cluster.Ring().Owner(key) })
	hit := rec.begin(o.Index, opSpan, "cache.hit")
	w.cluster.Batch(context.Background(), []service.Request{req})
	rec.end(hit)
	w.apiOver[c] = append(w.apiOver[c], float64(rtt-rec.spans[hit].dur()))
}

func (w *hotRepeat) traceFinish(b *bench, traced *phase, ts *traceSummary) (string, error) {
	rep := b.rep
	var over []float64
	for _, o := range w.apiOver {
		over = append(over, o...)
	}
	rep.set("api.overhead_ms", median(over)/1e6)
	rep.set("service.canon_us", ts.medianUS("service.canon"))
	rep.set("shard.route_us", ts.medianUS("shard.route"))
	rep.set("cache.hit_us", ts.medianUS("cache.hit"))
	rep.set("store.warm_start_ms", w.warmMS)
	return w.digest(), nil
}

func (w *hotRepeat) close() {
	if w.cluster != nil {
		_ = w.cluster.Close(context.Background())
	}
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
