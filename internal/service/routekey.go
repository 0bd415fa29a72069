package service

import (
	"errors"
	"fmt"
)

// ErrSessionRoute marks a request that cannot be placed by ring key: a
// session-bound job lives wherever its session was opened, and the
// minted session ID carries that shard as its prefix. The router parses
// the prefix instead of calling RouteKey.
var ErrSessionRoute = errors.New("service: session requests route by session id prefix, not ring key")

// RouteKey returns the stable device identity a sharded front door
// hashes to place this request:
//
//	"bench/<index>"   benchmark jobs — one suite CSD per index
//	"sim/<hash>"      simulated double-dot jobs — the spec hash with
//	                  Surrogate knobs cleared, identical to the twin key,
//	                  so a device's cache entries and its trained twin
//	                  always land on the same shard
//	"chain/<hash>"    chain jobs — the chain-spec hash, the prefix of
//	                  every per-pair twin key "chain/<hash>/<pair>"
//
// The key is computed from the normalized request, so equivalent
// requests (defaults explicit or not) route identically; a request the
// batch route prepared answers the key computed then. Session requests
// return ErrSessionRoute.
func (r Request) RouteKey() (string, error) {
	if r.canon != nil {
		return r.canon.key, nil
	}
	n, err := r.Normalized()
	if err != nil {
		return "", err
	}
	return n.routeKey()
}

// routeKey is RouteKey of a request already in canonical form.
func (n Request) routeKey() (string, error) {
	switch {
	case n.Session != "":
		return "", ErrSessionRoute
	case n.ChainSim != nil:
		spec := *n.ChainSim
		spec.Surrogate = nil
		return twinHash("chain", spec)
	case n.Sim != nil:
		return specTwinKey(*n.Sim)
	default:
		return fmt.Sprintf("bench/%d", n.Benchmark), nil
	}
}
