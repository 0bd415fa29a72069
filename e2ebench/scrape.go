package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"github.com/fastvg/fastvg/internal/fleet"
	"github.com/fastvg/fastvg/internal/service"
	"github.com/fastvg/fastvg/internal/telemetry"
)

// snapshot is the daemon's own accounting at one instant: /v1/stats, the
// fleet status, and every /metrics sample summed across label sets.
type snapshot struct {
	stats   statsBody
	metrics map[string]float64
	fleet   *fleet.Status
}

// statsBody is the part of GET /v1/stats the benchmark reads; a sharded
// daemon adds the per-shard breakdown.
type statsBody struct {
	Cache        service.CacheStats     `json:"cache"`
	Surrogate    service.SurrogateStats `json:"surrogate"`
	MethodProbes map[string]int64       `json:"methodProbes"`
	Shards       []*service.Stats       `json:"shards"`
}

func takeSnapshot(ctx context.Context, d *endpoint) (*snapshot, error) {
	s := &snapshot{fleet: &fleet.Status{}}
	if err := d.getJSON(ctx, "/v1/stats", &s.stats); err != nil {
		return nil, err
	}
	if err := d.getJSON(ctx, "/v1/fleet", s.fleet); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	fams, err := telemetry.Parse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	s.metrics = make(map[string]float64)
	for _, f := range fams {
		for _, smp := range f.Samples {
			if !strings.HasSuffix(smp.Name, "_bucket") {
				s.metrics[smp.Name] += smp.Value
			}
		}
	}
	return s, nil
}

// delta returns how much the named /metrics sample grew from a to b.
func delta(a, b *snapshot, name string) float64 { return b.metrics[name] - a.metrics[name] }

// histMean returns the mean of a histogram's observations between a and b,
// scaled by unit (e.g. 1e3 for seconds → ms).
func histMean(a, b *snapshot, family string, unit float64) float64 {
	return unit * ratio(delta(a, b, family+"_sum"), delta(a, b, family+"_count"))
}

// methodProbeTotal sums the per-method executed-probe counters.
func (s *statsBody) methodProbeTotal() int64 {
	var n int64
	for _, v := range s.MethodProbes {
		n += v
	}
	return n
}

// lookups returns a cache's hits, misses and coalesced joins together.
func lookups(c service.CacheStats) int64 { return c.Hits + c.Misses + c.Coalesced }
