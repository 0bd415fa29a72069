package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/fastvg/fastvg/internal/alert"
	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/telemetry"
	"github.com/fastvg/fastvg/internal/tsdb"
)

// Handler returns the front door: the service API's one route table
// (service.NewHandler) over the cluster. Routes land on one shard — the
// owner of the request's identity — or scatter-gather across all of them:
//
//	POST   /v1/jobs                  RouteKey on the ring (sessions by ID prefix)
//	GET    /v1/jobs/{id}             shard prefix in the job ID
//	DELETE /v1/jobs/{id}             shard prefix in the job ID
//	POST   /v1/sessions              spec twin key on the ring
//	DELETE /v1/sessions/{id}         shard prefix in the session ID
//	POST   /v1/fleet/devices         device ID on the ring (explicit IDs only
//	                                 on a multi-shard cluster: auto-minted
//	                                 IDs could not be routed back)
//	/v1/fleet/devices/{id}...        device ID on the ring
//	GET    /v1/spans/{hash}          first shard that has the span tree
//	GET    /v1/benchmarks            any live shard
//	GET    /debug/bundle             ?shard=i (default 0): a bundle is a
//	                                 per-process flight recording
//
// Scatter-gather, merged deterministically (shard index order):
//
//	POST /v1/batch       grouped by owner, merged back into request order
//	GET  /v1/jobs        all shards' jobs, shard order then submission order
//	GET  /v1/sessions    merged, ID order
//	GET  /v1/surrogate   merged, key order
//	POST /v1/surrogate/train  fanned out; per-shard trained maps merged
//	GET  /v1/stats       summed, with a per-shard breakdown under "shards"
//	GET  /v1/fleet       summed counters, max clock, devices in ID order
//	POST /v1/fleet/tick  same tick applied to every shard's virtual clock;
//	                     the reply lists each shard's reports under "shards"
//	GET  /v1/spans       union of journaled hashes
//	GET  /v1/alerts      per-shard boards, rules prefixed "s<i>/"
//	GET  /v1/query       per-shard evaluation, series labelled {shard="i"}
//	                     (?shard=i for one shard's own answer)
//	GET  /metrics        per-shard scrapes merged into one exposition with a
//	                     shard label on every sample; the router's own
//	                     families carry shard="router"
//	GET  /v1/healthz     rollup: ok = every shard up and accepting, 503 otherwise
//
// Work placed on a down shard answers 503 (ErrShardDown); a shard's
// overload answers 429 with its Retry-After, as it would on the shard.
func (c *Cluster) Handler() http.Handler { return service.NewHandler(c) }

// DeviceOwner returns the live shard that owns fleet device id on the
// ring, or ErrShardDown.
func (c *Cluster) DeviceOwner(id string) (*service.Service, error) {
	return c.routed(c.ring.Owner(id))
}

// Member returns the shard a ?shard= value names, or the lowest-index
// live shard for "". A named shard counts as a routed request; a bad or
// out-of-range index is a caller error, a down shard ErrShardDown.
func (c *Cluster) Member(shard string) (*service.Service, error) {
	if shard == "" {
		for i := range c.nodes {
			if svc := c.nodes[i].get(); svc != nil {
				return svc, nil
			}
		}
		return nil, ErrShardDown
	}
	i, err := strconv.Atoi(shard)
	if err != nil {
		return nil, fmt.Errorf("bad shard %q", shard)
	}
	return c.routed(i)
}

// RegisterDevice registers a fleet device on the shard its ID hashes to.
// A multi-shard cluster refuses an empty ID: the shard would mint one the
// ring could not route back.
func (c *Cluster) RegisterDevice(cfg fleet.DeviceConfig) (fleet.DeviceView, error) {
	if cfg.ID == "" && len(c.nodes) > 1 {
		return fleet.DeviceView{}, errors.New(
			"sharded fleet registration needs an explicit device id: auto-minted ids cannot be routed")
	}
	idx := 0
	if cfg.ID != "" {
		idx = c.ring.Owner(cfg.ID)
	}
	svc, err := c.shard(idx)
	if err != nil {
		return fleet.DeviceView{}, err
	}
	return svc.Fleet().Register(cfg)
}

// Surrogates merges every shard's twin listing in key order.
func (c *Cluster) Surrogates() []service.SurrogateInfo {
	var twins []service.SurrogateInfo
	c.each(func(_ int, svc *service.Service) { twins = append(twins, svc.Surrogates()...) })
	sort.Slice(twins, func(i, j int) bool { return twins[i].Key < twins[j].Key })
	return twins
}

// TrainSurrogates retrains every shard's twins and sums the per-key
// sample counts; the first shard error fails the call.
func (c *Cluster) TrainSurrogates() (map[string]int, error) {
	trained := make(map[string]int)
	var firstErr error
	c.each(func(_ int, svc *service.Service) {
		fed, err := svc.TrainSurrogates()
		if err != nil && firstErr == nil {
			firstErr = err
			return
		}
		for k, v := range fed {
			trained[k] += v
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return trained, nil
}

// FleetTick applies the same tick schedule to every shard's virtual clock,
// so the fleet stays on one logical timeline; shards tick concurrently —
// each owns a disjoint device slice — and each scrapes at its new
// instant. A schedule any shard would refuse is rejected before one shard
// ticks; when shards fail mid-tick, the lowest-index shard's error wins.
func (c *Cluster) FleetTick(ctx context.Context, advanceS float64, ticks int) (map[string]any, error) {
	var checkErr error
	c.each(func(_ int, svc *service.Service) {
		if err := svc.Fleet().CheckAdvance(advanceS, ticks); err != nil && checkErr == nil {
			checkErr = err
		}
	})
	if checkErr != nil {
		return nil, checkErr
	}
	type shardTicks struct {
		Shard   int                `json:"shard"`
		Now     float64            `json:"now"`
		Reports []fleet.TickReport `json:"reports"`
	}
	results := make([]*shardTicks, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	c.each(func(i int, svc *service.Service) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &shardTicks{Shard: i}
			for t := 0; t < ticks; t++ {
				rep, err := svc.Fleet().Tick(ctx, advanceS)
				if err != nil {
					errs[i] = err
					return
				}
				st.Reports = append(st.Reports, rep)
			}
			st.Now = svc.Fleet().Now()
			svc.ScrapeNow(st.Now)
			results[i] = st
		}()
	})
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var now float64
	shards := make([]*shardTicks, 0, len(results))
	for _, st := range results {
		if st == nil {
			continue
		}
		if st.Now > now {
			now = st.Now
		}
		shards = append(shards, st)
	}
	return map[string]any{"now": now, "shards": shards}, nil
}

// Alerts merges the per-shard alert boards, every rule name prefixed
// "s<i>/" and the history in time order; false when no live shard runs
// alerts.
func (c *Cluster) Alerts() (map[string]any, bool) {
	var alerts []alert.Status
	var firing []string
	var history []alert.Event
	seen := false
	c.each(func(i int, svc *service.Service) {
		eng := svc.AlertEngine()
		if eng == nil {
			return
		}
		seen = true
		prefix := fmt.Sprintf("s%d/", i)
		for _, st := range eng.Statuses() {
			st.Rule.Name = prefix + st.Rule.Name
			alerts = append(alerts, st)
		}
		for _, f := range eng.Firing() {
			firing = append(firing, prefix+f)
		}
		for _, ev := range eng.History(64) {
			ev.Rule = prefix + ev.Rule
			history = append(history, ev)
		}
	})
	if !seen {
		return nil, false
	}
	sort.Slice(history, func(i, j int) bool { return history[i].AtS < history[j].AtS })
	return map[string]any{"alerts": alerts, "firing": firing, "history": history}, true
}

// SpanHashes is the union of every shard's journaled span hashes, sorted.
func (c *Cluster) SpanHashes() []string {
	set := make(map[string]struct{})
	c.each(func(_ int, svc *service.Service) {
		for _, h := range svc.SpanHashes() {
			set[h] = struct{}{}
		}
	})
	hashes := make([]string, 0, len(set))
	for h := range set {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	return hashes
}

// SpanTree returns the first shard's span tree for hash, in shard order.
func (c *Cluster) SpanTree(hash string) (*telemetry.Span, bool) {
	var sp *telemetry.Span
	c.each(func(_ int, svc *service.Service) {
		if sp != nil {
			return
		}
		if got, ok := svc.SpanTree(hash); ok {
			sp = got
		}
	})
	return sp, sp != nil
}

// Liveness is the merged Health; healthy only while every shard is up
// and none drains.
func (c *Cluster) Liveness() (any, bool) {
	h := c.Health()
	return h, h.OK && !h.Draining
}

// StatsBody sums per-shard accounting and keeps the per-shard snapshots
// under "shards" (index order; down shards are null).
func (c *Cluster) StatsBody() map[string]any {
	var cache service.CacheStats
	var surr service.SurrogateStats
	jobs := make(map[string]int)
	sessions, workers, running := 0, 0, 0
	var submitted, completed, failed, cancelled int64
	perShard := make([]*service.Stats, len(c.nodes))
	c.each(func(i int, svc *service.Service) {
		st := svc.Stats()
		perShard[i] = &st
		cache.Capacity += st.Cache.Capacity
		cache.Entries += st.Cache.Entries
		cache.Hits += st.Cache.Hits
		cache.Misses += st.Cache.Misses
		cache.Coalesced += st.Cache.Coalesced
		cache.Evictions += st.Cache.Evictions
		for k, v := range st.Jobs {
			jobs[k] += v
		}
		sessions += st.Sessions
		workers += st.Scheduler.Workers
		running += st.Scheduler.Running
		submitted += st.Scheduler.Submitted
		completed += st.Scheduler.Completed
		failed += st.Scheduler.Failed
		cancelled += st.Scheduler.Cancelled
		surr.Models += st.Surrogate.Models
		surr.Fitted += st.Surrogate.Fitted
		surr.Hits += st.Surrogate.Hits
		surr.Escalations += st.Surrogate.Escalations
	})
	return map[string]any{
		"cache":   cache,
		"hitRate": cache.HitRate(),
		"scheduler": map[string]any{
			"workers": workers, "running": running, "submitted": submitted,
			"completed": completed, "failed": failed, "cancelled": cancelled,
		},
		"jobs":      jobs,
		"sessions":  sessions,
		"surrogate": surr,
		"shards":    perShard,
	}
}

// FleetStatus merges per-shard fleet status: one logical fleet on one
// virtual clock (max across shards — ticks apply to all), capacity and
// work counters summed, devices re-sorted into ID order.
func (c *Cluster) FleetStatus() fleet.Status {
	var out fleet.Status
	c.each(func(_ int, svc *service.Service) {
		st := svc.Fleet().Status()
		if st.Now > out.Now {
			out.Now = st.Now
		}
		if st.BudgetWindowS > out.BudgetWindowS {
			out.BudgetWindowS = st.BudgetWindowS
		}
		if st.WorstStaleness > out.WorstStaleness {
			out.WorstStaleness = st.WorstStaleness
		}
		out.DeviceCount += st.DeviceCount
		out.PairCount += st.PairCount
		out.Budget += st.Budget
		out.BudgetUsed += st.BudgetUsed
		out.Checks += st.Checks
		out.Calibrations += st.Calibrations
		out.Recalibrations += st.Recalibrations
		out.PartialRecals += st.PartialRecals
		out.Forced += st.Forced
		out.FailedCals += st.FailedCals
		out.LostEvents += st.LostEvents
		out.ProbesSpent += st.ProbesSpent
		out.ProbesSaved += st.ProbesSaved
		out.MaxWindowProbes += st.MaxWindowProbes
		out.SkippedBudget += st.SkippedBudget
		out.Devices = append(out.Devices, st.Devices...)
	})
	sort.Slice(out.Devices, func(i, j int) bool { return out.Devices[i].ID < out.Devices[j].ID })
	return out
}

// Query evaluates one tsdb query on every live shard and merges the
// answers: each shard's series gain a {shard="i"} label, AtS is the
// newest evaluation instant. fn=range dumps merge the same way.
func (c *Cluster) Query(q tsdb.Query) (*tsdb.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err // even with no live shard to reject it
	}
	out := tsdb.Result{Fn: q.Fn, Series: q.Series, WindowS: q.WindowS, Q: q.Q}
	var firstErr error
	c.each(func(i int, svc *service.Service) {
		res, err := svc.TSDB().Query(q)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if res.AtS > out.AtS {
			out.AtS = res.AtS
		}
		tag := fmt.Sprintf("shard=\"%d\"", i)
		for _, v := range res.Values {
			v.Series = stampSeries(v.Series, tag)
			out.Values = append(out.Values, v)
		}
		for _, d := range res.Range {
			d.Series = stampSeries(d.Series, tag)
			out.Range = append(out.Range, d)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return &out, nil
}

// stampSeries injects a label pair into a series signature of the form
// name or name{k="v",...}.
func stampSeries(series, tag string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i+1] + tag + "," + series[i+1:]
	}
	return series + "{" + tag + "}"
}

// Exposition scrapes every live shard's registry plus the router's
// own, stamps each sample with its shard label and merges families by
// name — one exposition, per-shard series distinguishable, ready for the
// same Parse that built it.
func (c *Cluster) Exposition() (string, error) {
	type scrape struct {
		label string
		text  string
	}
	var scrapes []scrape
	c.each(func(i int, svc *service.Service) {
		scrapes = append(scrapes, scrape{label: strconv.Itoa(i), text: svc.Telemetry().Expose()})
	})
	scrapes = append(scrapes, scrape{label: "router", text: c.tel.Expose()})

	var order []string
	merged := make(map[string]*telemetry.Family)
	for _, sc := range scrapes {
		fams, err := telemetry.Parse(strings.NewReader(sc.text))
		if err != nil {
			return "", fmt.Errorf("shard %s scrape: %w", sc.label, err)
		}
		for _, f := range fams {
			for si := range f.Samples {
				if f.Samples[si].Labels == nil {
					f.Samples[si].Labels = make(map[string]string, 1)
				}
				f.Samples[si].Labels["shard"] = sc.label
			}
			m, ok := merged[f.Name]
			if !ok {
				merged[f.Name] = f
				order = append(order, f.Name)
				continue
			}
			m.Samples = append(m.Samples, f.Samples...)
		}
	}
	fams := make([]*telemetry.Family, len(order))
	for i, name := range order {
		fams[i] = merged[name]
	}
	return telemetry.RenderFamilies(fams), nil
}
