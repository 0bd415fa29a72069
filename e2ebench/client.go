package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// endpoint sends requests to one daemon over a keep-alive pool holding at
// most one connection per client.
type endpoint struct {
	base   string
	client *http.Client
	tr     *http.Transport
}

func newEndpoint(base string, conns int) *endpoint {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}
	return &endpoint{base: base, tr: tr, client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (d *endpoint) close() { d.tr.CloseIdleConnections() }

// post sends body to path and reads the whole response into buf. The
// request is built without GetBody, so the transport can never replay it:
// every failure reaches the caller, none is retried.
func (d *endpoint) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.GetBody = nil
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// getJSON decodes a GET response into v.
func (d *endpoint) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON sends body and decodes a 2xx response into v.
func (d *endpoint) postJSON(ctx context.Context, path string, body []byte, v any) error {
	var buf bytes.Buffer
	code, err := d.post(ctx, path, body, &buf)
	if err != nil {
		return err
	}
	if code/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, code, bytes.TrimSpace(buf.Bytes()))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// verdict classifies one op's outcome.
type verdict uint8

const (
	opOK     verdict = iota
	opFailed         // no result: transport error, non-2xx, or an item error
	opWrong          // a result that fails the output checks
)

// outcome is one op as the client saw it.
type outcome struct {
	lat     time.Duration
	v       verdict
	bytes   int
	problem string
}

// checkFunc validates one 2xx response body of op o.
type checkFunc func(o op, body []byte) (verdict, string)

// layerFunc makes the traced pass's in-process calls for op o under the
// op span opSpan; rtt is the op's HTTP round trip.
type layerFunc func(c int, o op, rec *recorder, opSpan int32, rtt time.Duration)

// pass is one closed-loop run of an op sequence: each client sends its
// next op only after the previous one completed.
type pass struct {
	d       *endpoint
	seq     *opSeq
	clients int
	check   checkFunc
	layers  layerFunc   // nil for the untraced pass
	recs    []*recorder // one per client when traced
}

// run executes every op and returns the outcomes in op order and the
// pass's wall time.
func (p *pass) run(ctx context.Context) ([]outcome, time.Duration, error) {
	outs := make([]outcome, len(p.seq.Ops))
	perClient := p.seq.clientOps(p.clients)
	if p.layers != nil {
		t0 := time.Now()
		p.recs = make([]*recorder, p.clients)
		for c := range p.recs {
			p.recs[c] = &recorder{client: c, t0: t0}
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var rec *recorder
			if p.recs != nil {
				rec = p.recs[c]
			}
			var buf bytes.Buffer
			for _, o := range perClient[c] {
				if ctx.Err() != nil {
					return
				}
				it := &p.seq.Items[o.Item]
				var opSpan, httpSpan int32
				if rec != nil {
					opSpan = rec.begin(o.Index, -1, "op")
					httpSpan = rec.begin(o.Index, opSpan, "http")
				}
				t0 := time.Now()
				code, err := p.d.post(ctx, it.Path, it.Body, &buf)
				out := outcome{lat: time.Since(t0), bytes: buf.Len()}
				if rec != nil {
					rec.end(httpSpan)
				}
				switch {
				case err != nil:
					out.v, out.problem = opFailed, err.Error()
				case code/100 != 2:
					out.v, out.problem = opFailed, fmt.Sprintf("status %d: %.200s", code, bytes.TrimSpace(buf.Bytes()))
				default:
					out.v, out.problem = p.check(o, buf.Bytes())
				}
				outs[o.Index] = out
				if rec != nil {
					p.layers(c, o, rec, opSpan, out.lat)
					rec.end(opSpan)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return outs, wall, nil
}
