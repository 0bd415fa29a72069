package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"github.com/fastvg/fastvg/internal/service"
)

// opResult is one extraction result as returned over HTTP.
type opResult struct {
	raw json.RawMessage
	res service.Result
}

// batchResponse is the shape of a POST /v1/batch reply.
type batchResponse struct {
	Items []struct {
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	} `json:"items"`
}

// checkBatch validates one one-request POST /v1/batch reply for it. An
// empty reply, an item error or an item without a result is a failed op; a
// result whose hash differs from the client's own Request.Hash, whose kind
// differs, or whose matrix entries are not finite is a wrong one.
func checkBatch(it *item, body []byte) (*opResult, verdict, string) {
	if len(bytes.TrimSpace(body)) == 0 {
		// vgxd answers 200 with no body when it cannot encode the result.
		return nil, opFailed, fmt.Sprintf("%s: empty batch reply", it.Label)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, opWrong, fmt.Sprintf("%s: decode batch reply %.120q: %v", it.Label, body, err)
	}
	if len(resp.Items) != 1 {
		return nil, opWrong, fmt.Sprintf("%s: %d batch items for one request", it.Label, len(resp.Items))
	}
	return checkItem(it, resp.Items[0].Result, resp.Items[0].Error)
}

// checkItem validates one batch item: its result (raw) or its error.
func checkItem(it *item, raw json.RawMessage, itemErr string) (*opResult, verdict, string) {
	if itemErr != "" {
		return nil, opFailed, fmt.Sprintf("%s: item error: %s", it.Label, itemErr)
	}
	if len(raw) == 0 || string(raw) == "null" {
		return nil, opFailed, fmt.Sprintf("%s: item carries no result", it.Label)
	}
	r := &opResult{raw: raw}
	if err := json.Unmarshal(raw, &r.res); err != nil {
		return nil, opWrong, fmt.Sprintf("%s: decode result: %v", it.Label, err)
	}
	if r.res.Hash != it.Hash {
		return nil, opWrong, fmt.Sprintf("%s: result hash %s, request hash %s", it.Label, r.res.Hash, it.Hash)
	}
	if r.res.Kind != it.Req.Kind {
		return nil, opWrong, fmt.Sprintf("%s: result kind %s for a %s request", it.Label, r.res.Kind, it.Req.Kind)
	}
	if !finiteResult(&r.res) {
		return nil, opWrong, fmt.Sprintf("%s: non-finite matrix entry", it.Label)
	}
	return r, opOK, ""
}

// finiteResult reports whether every matrix entry and slope is finite.
func finiteResult(r *service.Result) bool {
	vs := []float64{r.A12, r.A21, r.SteepSlope, r.ShallowSlope, r.TripleV1, r.TripleV2}
	if ch := r.Chain; ch != nil {
		vs = append(vs, ch.A12...)
		vs = append(vs, ch.A21...)
		for _, p := range ch.Pairs {
			vs = append(vs, p.Matrix[0][0], p.Matrix[0][1], p.Matrix[1][0], p.Matrix[1][1], p.SteepSlope, p.ShallowSlope)
		}
	}
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// canonicalDigest hashes a result with its wall-clock fields (computeS,
// cached) removed and keys in sorted order, so equal matrices, probes and
// dwell hash equal however long they took to compute.
func canonicalDigest(raw json.RawMessage) [32]byte {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return sha256.Sum256(raw)
	}
	delete(m, "computeS")
	delete(m, "cached")
	b, err := json.Marshal(m)
	if err != nil {
		return sha256.Sum256(raw)
	}
	return sha256.Sum256(b)
}

// digestResults hashes per-op results in op order; a missing result (a
// failed op) hashes as a fixed marker.
func digestResults(results []*opResult) string {
	h := sha256.New()
	for _, r := range results {
		if r == nil {
			h.Write([]byte("-"))
			continue
		}
		d := canonicalDigest(r.raw)
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
