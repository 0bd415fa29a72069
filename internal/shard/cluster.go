package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/telemetry"
)

// Config configures a Cluster.
type Config struct {
	// Shards is the worker count; < 1 means 1. A 1-shard cluster still
	// answers in the sharded dialect (see Handler); vgxd serves a plain
	// service instead.
	Shards int
	// DataDir, when set, makes every shard durable: shard i journals
	// under DataDir/shard-i, and DataDir/cluster.json records the shard
	// count the directory was last laid out for (Open rebalances when it
	// changes). Empty runs the whole cluster in memory.
	DataDir string
	// Base is the per-shard service configuration template. The cluster
	// overrides the placement fields per shard: InstanceID becomes "s<i>"
	// and DataDir becomes the shard directory (or empty). Every shard
	// owns its own metric registry; the front door scrapes and merges
	// them.
	Base service.Config
}

// Cluster is N shard workers behind one stateless front door. Each shard
// is a complete service — its own worker pool, result cache, twin
// registry, fleet slice and journal — and the router consistent-hashes
// request identities onto them: spec/benchmark jobs by RouteKey, fleet
// devices by device ID, job polls and session calls by the shard prefix
// minted into their IDs. Batch and fleet-summary work scatter-gathers.
// Identical requests hash to the same shard, whose result cache coalesces
// concurrent ones onto one extraction.
type Cluster struct {
	cfg  Config
	ring *Ring

	nodes []*node

	// Router-level telemetry (shard label "router" in the merged scrape).
	tel      *telemetry.Registry
	mRouted  *telemetry.CounterVec // vgx_router_requests_total{shard}
	mScatter *telemetry.Counter
}

// node is one shard slot. svc is nil while the shard is down (KillShard
// simulates a crash without closing anything, the kill -9 contract).
type node struct {
	mu  sync.RWMutex
	svc *service.Service
}

func (n *node) get() *service.Service {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.svc
}

// ErrShardDown rejects work routed to a killed shard; the front door
// answers it with 503.
var ErrShardDown = service.ErrShardDown

// New builds the cluster and starts every shard. With Config.DataDir set
// the caller is responsible for the layout matching Config.Shards — use
// Open, which reads the manifest and rebalances automatically.
func New(cfg Config) (*Cluster, error) {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	cfg.Shards = n
	tel := telemetry.NewRegistry()
	c := &Cluster{
		cfg:   cfg,
		ring:  NewRing(n),
		nodes: make([]*node, n),
		tel:   tel,
	}
	c.mRouted = tel.CounterVec("vgx_router_requests_total",
		"Requests dispatched by the shard router, by target shard.", "shard")
	c.mScatter = tel.Counter("vgx_router_scatter_total",
		"Scatter-gather fan-outs (batch and fleet-summary work spanning >1 shard).")
	for i := 0; i < n; i++ {
		svc, err := service.New(c.shardConfig(i))
		if err != nil {
			for j := 0; j < i; j++ {
				c.nodes[j].get().Close(context.Background())
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.nodes[i] = &node{svc: svc}
	}
	return c, nil
}

// Open is the durable entry point: it reads DataDir/cluster.json, ships
// journal ranges between shard directories when the shard count changed
// since the last run (see Rebalance), rewrites the manifest and starts
// the cluster. The report is nil when no rebalance was needed.
func Open(cfg Config) (*Cluster, *RebalanceReport, error) {
	var rep *RebalanceReport
	if cfg.DataDir != "" {
		want := cfg.Shards
		if want < 1 {
			want = 1
		}
		man, ok, err := ReadManifest(cfg.DataDir)
		if err != nil {
			return nil, nil, err
		}
		if ok && man.Shards != want {
			if rep, err = Rebalance(cfg.DataDir, man.Shards, want); err != nil {
				return nil, nil, err
			}
		}
		if err := WriteManifest(cfg.DataDir, Manifest{Shards: want}); err != nil {
			return nil, nil, err
		}
	}
	c, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return c, rep, nil
}

// shardConfig derives shard i's service configuration from the template.
func (c *Cluster) shardConfig(i int) service.Config {
	sc := c.cfg.Base
	sc.InstanceID = fmt.Sprintf("s%d", i)
	sc.DataDir = ""
	if c.cfg.DataDir != "" {
		sc.DataDir = ShardDir(c.cfg.DataDir, i)
	}
	return sc
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.nodes) }

// Ring exposes the placement ring (read-only).
func (c *Cluster) Ring() *Ring { return c.ring }

// Telemetry exposes the router's own metric registry.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.tel }

// shard returns shard i's live service, or ErrShardDown.
func (c *Cluster) shard(i int) (*service.Service, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("shard: no shard %d (cluster has %d)", i, len(c.nodes))
	}
	svc := c.nodes[i].get()
	if svc == nil {
		return nil, fmt.Errorf("%w: shard %d", ErrShardDown, i)
	}
	return svc, nil
}

// routed returns shard i's live service and counts the request routed
// to it.
func (c *Cluster) routed(i int) (*service.Service, error) {
	svc, err := c.shard(i)
	if err != nil {
		return nil, err
	}
	c.mRouted.With(strconv.Itoa(i)).Inc()
	return svc, nil
}

// each calls fn for every live shard in index order; down shards are
// skipped (the scatter paths degrade instead of failing outright).
func (c *Cluster) each(fn func(i int, svc *service.Service)) {
	for i := range c.nodes {
		if svc := c.nodes[i].get(); svc != nil {
			fn(i, svc)
		}
	}
}

// shardOfID parses the shard prefix the shards mint into job and session
// IDs ("s3-job-000001", "s3-sess-0001").
func (c *Cluster) shardOfID(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0, false
	}
	num, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(num)
	if err != nil || i < 0 || i >= len(c.nodes) {
		return 0, false
	}
	return i, true
}

// route places a request: session-bound jobs go to the shard named in
// the session ID prefix, everything else hashes its RouteKey on the
// ring (a request the batch route prepared carries its key).
func (c *Cluster) route(req service.Request) (int, error) {
	key, err := req.RouteKey()
	if err == nil {
		return c.ring.Owner(key), nil
	}
	if !errors.Is(err, service.ErrSessionRoute) {
		return 0, err
	}
	if i, ok := c.shardOfID(req.Session); ok {
		return i, nil
	}
	return 0, fmt.Errorf("shard: session %q has no routable shard prefix", req.Session)
}

// Run executes one request synchronously on its owning shard. Identical
// requests route to the same shard, whose result cache coalesces
// concurrent cacheable ones: one caller runs the extraction, the rest join
// it without occupying a queue slot, so joins are served even when the
// shard is shedding load.
func (c *Cluster) Run(ctx context.Context, req service.Request) (*service.Result, error) {
	idx, err := c.route(req)
	if err != nil {
		return nil, err
	}
	svc, err := c.routed(idx)
	if err != nil {
		return nil, err
	}
	return svc.Run(ctx, req)
}

// Submit routes an async submission to its owning shard; the returned
// job ID carries the shard prefix, so polls route statelessly.
func (c *Cluster) Submit(ctx context.Context, req service.Request) (service.JobView, error) {
	idx, err := c.route(req)
	if err != nil {
		return service.JobView{}, err
	}
	svc, err := c.routed(idx)
	if err != nil {
		return service.JobView{}, err
	}
	return svc.Submit(ctx, req)
}

// Batch is the scatter-gather path: requests are grouped by owning
// shard, each group runs as one shard-local batch concurrently, and the
// outcomes are merged back into request order — deterministic regardless
// of shard count or scheduling. A batch that routes entirely to one shard
// runs on the caller's goroutine. Routing errors and down shards surface
// as per-item errors, exactly like per-item execution errors.
func (c *Cluster) Batch(ctx context.Context, reqs []service.Request) []service.BatchItem {
	out := make([]service.BatchItem, len(reqs))
	owners := make([]int, len(reqs))
	oneShard := len(reqs) > 0
	for i, req := range reqs {
		idx, err := c.route(req)
		if err != nil {
			out[i] = service.BatchItem{Error: err.Error()}
			idx = -1
		}
		owners[i] = idx
		oneShard = oneShard && idx >= 0 && idx == owners[0]
	}
	if oneShard {
		svc, err := c.shard(owners[0])
		if err != nil {
			for i := range out {
				out[i] = service.BatchItem{Error: err.Error()}
			}
			return out
		}
		c.mRouted.With(strconv.Itoa(owners[0])).Add(int64(len(reqs)))
		return svc.Batch(ctx, reqs)
	}
	groups := make(map[int][]int)
	for i, idx := range owners {
		if idx >= 0 {
			groups[idx] = append(groups[idx], i)
		}
	}
	if len(groups) > 1 {
		c.mScatter.Inc()
	}
	var wg sync.WaitGroup
	for idx, positions := range groups {
		svc, err := c.shard(idx)
		if err != nil {
			for _, p := range positions {
				out[p] = service.BatchItem{Error: err.Error()}
			}
			continue
		}
		c.mRouted.With(strconv.Itoa(idx)).Add(int64(len(positions)))
		sub := make([]service.Request, len(positions))
		for k, p := range positions {
			sub[k] = reqs[p]
		}
		wg.Add(1)
		go func(svc *service.Service, positions []int, sub []service.Request) {
			defer wg.Done()
			items := svc.Batch(ctx, sub)
			for k, p := range positions {
				out[p] = items[k]
			}
		}(svc, positions, sub)
	}
	wg.Wait()
	return out
}

// Jobs merges every shard's job listing, shards in index order and each
// shard's jobs in its own submission order.
func (c *Cluster) Jobs() []service.JobView {
	var out []service.JobView
	c.each(func(_ int, svc *service.Service) { out = append(out, svc.Jobs()...) })
	return out
}

// Job routes a job lookup by its ID prefix.
func (c *Cluster) Job(id string) (service.JobView, bool) {
	i, ok := c.shardOfID(id)
	if !ok {
		return service.JobView{}, false
	}
	svc, err := c.shard(i)
	if err != nil {
		return service.JobView{}, false
	}
	return svc.Job(id)
}

// Cancel routes a cancellation by job ID prefix.
func (c *Cluster) Cancel(id string) bool {
	i, ok := c.shardOfID(id)
	if !ok {
		return false
	}
	svc, err := c.shard(i)
	if err != nil {
		return false
	}
	return svc.Cancel(id)
}

// OpenSim opens a session on a deterministic shard: the device spec's
// canonical identity is hashed on the ring (via a fast-kind probe
// request, whose route key is the spec twin key), so re-opening the same
// device lands where its twin and cache entries live.
func (c *Cluster) OpenSim(spec device.DoubleDotSpec) (service.SessionInfo, error) {
	probe := service.Request{Kind: service.KindFast, Sim: &spec}
	key, err := probe.RouteKey()
	if err != nil {
		return service.SessionInfo{}, err
	}
	svc, err := c.shard(c.ring.Owner(key))
	if err != nil {
		return service.SessionInfo{}, err
	}
	return svc.OpenSim(spec)
}

// Sessions merges every shard's session listing, sorted by ID.
func (c *Cluster) Sessions() []service.SessionInfo {
	var out []service.SessionInfo
	c.each(func(_ int, svc *service.Service) { out = append(out, svc.Sessions()...) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CloseSession routes a session close by ID prefix.
func (c *Cluster) CloseSession(id string) bool {
	i, ok := c.shardOfID(id)
	if !ok {
		return false
	}
	svc, err := c.shard(i)
	if err != nil {
		return false
	}
	return svc.CloseSession(id)
}

// Health merges shard healths: OK only when every shard is up and
// accepting, capacity fields summed, uptime of the oldest shard.
type Health struct {
	OK       bool             `json:"ok"`
	Shards   int              `json:"shards"`
	Down     []int            `json:"down,omitempty"` // killed/unreachable shard indices
	Draining bool             `json:"draining"`
	UptimeS  float64          `json:"uptimeS"`
	Workers  int              `json:"workers"`
	Running  int              `json:"running"`
	Sessions int              `json:"sessions"`
	Fleet    int              `json:"fleet"`
	PerShard []service.Health `json:"perShard"`
}

// Health reports the merged liveness snapshot.
func (c *Cluster) Health() Health {
	h := Health{OK: true, Shards: len(c.nodes), PerShard: make([]service.Health, len(c.nodes))}
	for i := range c.nodes {
		svc := c.nodes[i].get()
		if svc == nil {
			h.OK = false
			h.Down = append(h.Down, i)
			continue
		}
		sh := svc.Health()
		h.PerShard[i] = sh
		h.OK = h.OK && sh.OK
		h.Draining = h.Draining || sh.Draining
		if sh.UptimeS > h.UptimeS {
			h.UptimeS = sh.UptimeS
		}
		h.Workers += sh.Workers
		h.Running += sh.Running
		h.Sessions += sh.Sessions
		h.Fleet += sh.Fleet
	}
	return h
}

// KillShard simulates a crash of shard i: the slot is emptied without
// draining, closing or flushing anything — from the cluster's point of
// view the process took a kill -9. The shard's journal keeps whatever
// was already appended; RestartShard recovers from it. Returns false if
// the shard is already down.
func (c *Cluster) KillShard(i int) bool {
	if i < 0 || i >= len(c.nodes) {
		return false
	}
	n := c.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.svc == nil {
		return false
	}
	n.svc = nil
	return true
}

// RestartShard brings a killed shard back: a fresh service opens the
// same shard directory and warm-starts from its journal (cache, twins,
// fleet state), exactly like a process restart on that node.
func (c *Cluster) RestartShard(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("shard: no shard %d (cluster has %d)", i, len(c.nodes))
	}
	n := c.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.svc != nil {
		return fmt.Errorf("shard: shard %d is already up", i)
	}
	svc, err := service.New(c.shardConfig(i))
	if err != nil {
		return err
	}
	n.svc = svc
	return nil
}

// Close drains every live shard concurrently and joins their errors.
func (c *Cluster) Close(ctx context.Context) error {
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i := range c.nodes {
		svc := c.nodes[i].get()
		if svc == nil {
			continue
		}
		wg.Add(1)
		go func(i int, svc *service.Service) {
			defer wg.Done()
			errs[i] = svc.Close(ctx)
		}(i, svc)
	}
	wg.Wait()
	return errors.Join(errs...)
}
