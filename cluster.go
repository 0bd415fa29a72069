package fastvg

import (
	"context"
	"net/http"

	"github.com/fastvg/fastvg/internal/shard"
)

// Sharded multi-node serving: N complete services (shards) behind one
// stateless consistent-hash front door (internal/shard). Each shard owns
// its own worker pool, result cache, twin registry, fleet slice and
// journal; the router hashes device/session/spec identities onto the
// ring, scatter-gathers batch and fleet-summary work, and merges /metrics
// and /v1/query with a per-shard label. Identical requests share a shard,
// whose cache coalesces them. A cluster serves the same route table as a
// single service (ServiceHandler); its replies differ only where there is
// more than one shard to tell apart — per-shard tick reports, s<i>/ alert
// names, shard labels on queries and metrics, the healthz rollup,
// explicit fleet device IDs and s<i>- job and session IDs — and that
// holds for a 1-shard cluster too.

// Cluster is the sharded serving layer: N shard services behind one
// consistent-hash router.
type Cluster = shard.Cluster

// ClusterConfig configures a cluster: the shard count, the cluster data
// directory (shard i journals under <DataDir>/shard-i) and the per-shard
// service configuration template.
type ClusterConfig = shard.Config

// ClusterHealth is the merged liveness snapshot: ok only when every
// shard is up and accepting, capacity summed, down shards listed.
type ClusterHealth = shard.Health

// ClusterRebalanceReport proves what a shard-count change shipped:
// exactly the journaled keys whose ring owner changed, and nothing else.
type ClusterRebalanceReport = shard.RebalanceReport

// ClusterMove is one journaled key shipped between shards.
type ClusterMove = shard.Move

// ShardRing is the consistent-hash ring the router places identities
// with; placement is a pure function of (key, shard count).
type ShardRing = shard.Ring

// NewShardRing builds the placement ring for n shards.
func NewShardRing(n int) *ShardRing { return shard.NewRing(n) }

// NewCluster builds and starts an N-shard cluster. For durable clusters
// whose shard count may have changed since the data dir was written,
// use OpenCluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return shard.New(cfg) }

// OpenCluster reads the cluster manifest under cfg.DataDir, rebalances
// journal ranges if the shard count changed since the last run, and
// starts the cluster. The report is nil when nothing moved.
func OpenCluster(cfg ClusterConfig) (*Cluster, *ClusterRebalanceReport, error) {
	return shard.Open(cfg)
}

// ClusterHandler returns the front door: the single service's route
// table served over the cluster, with routing, scatter-gather and
// per-shard scrape merging behind it.
func ClusterHandler(c *Cluster) http.Handler { return c.Handler() }

// CloseCluster drains every shard concurrently (bounded by ctx).
func CloseCluster(ctx context.Context, c *Cluster) error { return c.Close(ctx) }

// RebalanceShards reshapes a cluster data dir from one shard count to
// another offline, shipping only the journal ranges whose keys changed
// ring owner. OpenCluster calls this automatically; it is exported for
// explicit offline reshapes.
func RebalanceShards(dataDir string, from, to int) (*ClusterRebalanceReport, error) {
	return shard.Rebalance(dataDir, from, to)
}
