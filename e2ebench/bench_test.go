package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/fastvg/fastvg/internal/service"
)

func TestColdMixDeterministicPerSeed(t *testing.T) {
	a, err := coldMixSeq(7, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coldMixSeq(7, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("same seed, different op sequences: %s vs %s", a.Digest(), b.Digest())
	}
	c, err := coldMixSeq(8, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == c.Digest() {
		t.Fatal("different seeds generated the same op sequence")
	}
}

func TestColdMixExactMixAndTwinOwnership(t *testing.T) {
	const clients = 3
	seq, err := coldMixSeq(11, 400, clients)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, l := range coldMixBlock {
		want[l]++
	}
	for blk := 0; blk < len(seq.Ops)/len(coldMixBlock); blk++ {
		got := make(map[string]int)
		for _, o := range seq.Ops[blk*len(coldMixBlock) : (blk+1)*len(coldMixBlock)] {
			got[seq.Items[o.Item].Label]++
		}
		for l, n := range want {
			if got[l] != n {
				t.Fatalf("block %d has %d %s ops, want %d", blk, got[l], l, n)
			}
		}
	}
	owner := make(map[string]int) // twin request hash → client
	for _, o := range seq.Ops {
		if o.Client != o.Index%clients {
			t.Fatalf("op %d assigned to client %d", o.Index, o.Client)
		}
		it := seq.Items[o.Item]
		if it.Label != "twin" {
			continue
		}
		if o.Item/twinDevicesPerClient != o.Client {
			t.Fatalf("op %d: client %d sent twin device %d", o.Index, o.Client, o.Item)
		}
		if c, ok := owner[it.Hash]; ok && c != o.Client {
			t.Fatalf("twin device %s driven by clients %d and %d", it.Hash, c, o.Client)
		}
		owner[it.Hash] = o.Client
	}
	if len(owner) != clients*twinDevicesPerClient {
		t.Fatalf("%d twin devices in use, want %d", len(owner), clients*twinDevicesPerClient)
	}
}

func TestHotRepeatWorkingSet(t *testing.T) {
	a, err := hotRepeatSeq(3, 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hotRepeatSeq(3, 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same seed, different hot-repeat sequences")
	}
	if len(a.Items) != 2*service.SuiteSize+hotSetSize {
		t.Fatalf("working set of %d, want %d", len(a.Items), 2*service.SuiteSize+hotSetSize)
	}
	for i, req := range service.Table1Requests() {
		h, _ := req.Hash()
		if a.Items[i].Hash != h {
			t.Fatalf("rank %d is not Table-1 request %d", i, i)
		}
	}
	draws := make([]int, len(a.Items))
	for _, o := range a.Ops {
		draws[o.Item]++
	}
	if draws[0] <= draws[len(draws)-1] {
		t.Fatalf("top rank drawn %d times, bottom %d: no skew", draws[0], draws[len(draws)-1])
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		sort.Float64s(s)
		return s
	}
	if _, ok := percentile(sample(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, ok := percentile(sample(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1000 samples = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(sample(19), 0.5); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, ok := percentile(sample(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 20 samples = %v, %v; want 10, true", v, ok)
	}
}

// TestPassCountsFailuresWithoutRetry drives a stub server that answers
// one op with 429, one with 500 and drops the connection of a third: all
// three count as failed, and the server sees each op exactly once.
func TestPassCountsFailuresWithoutRetry(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 2:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
		case 4:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case 6:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
		default:
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"ok": true})
		}
	}))
	defer srv.Close()

	const n = 8
	seq := &opSeq{Items: []item{{Label: "stub", Path: "/v1/batch", Body: []byte(`{}`)}}, Ops: make([]op, n)}
	for i := range seq.Ops {
		seq.Ops[i] = op{Index: i}
	}
	d := newEndpoint(srv.URL, 1)
	defer d.close()
	p := &pass{d: d, seq: seq, clients: 1, check: func(op, []byte) (verdict, string) { return opOK, "" }}
	outs, _, err := p.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != n {
		t.Fatalf("server saw %d requests for %d ops: the client retried", got, n)
	}
	for i, o := range outs {
		wantFailed := i == 1 || i == 3 || i == 5
		if (o.v == opFailed) != wantFailed {
			t.Errorf("op %d: verdict %d (%s), failed=%v wanted", i, o.v, o.problem, wantFailed)
		}
	}
	if f := len(outs) - countVerdict(outs, opOK); f != 3 {
		t.Fatalf("%d failed ops, want 3", f)
	}
}

// TestBatchReplyVerdicts: a reply without a result is a failed op, a
// result for another request is a wrong one.
func TestBatchReplyVerdicts(t *testing.T) {
	req := service.Request{Kind: service.KindFast, Benchmark: 6}
	it, err := batchItem("fast", req)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := service.Request{Kind: service.KindFast, Benchmark: 7}.Hash()
	for _, tc := range []struct {
		body string
		want verdict
	}{
		{"", opFailed},
		{`{"items":[{"error":"boom"}]}`, opFailed},
		{`{"items":[{}]}`, opFailed},
		{`{"items":[{"result":{"kind":"fast","hash":"` + it.Hash + `","a12":0.1}}]}`, opOK},
		{`{"items":[{"result":{"kind":"fast","hash":"` + other + `","a12":0.1}}]}`, opWrong},
		{`{"items":[{"result":{"kind":"baseline","hash":"` + it.Hash + `"}}]}`, opWrong},
		{`{"items":[]}`, opWrong},
	} {
		if _, v, msg := checkBatch(&it, []byte(tc.body)); v != tc.want {
			t.Errorf("reply %q: verdict %d (%s), want %d", tc.body, v, msg, tc.want)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metric set and the
// declared one in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	for _, wl := range decl.Workloads {
		if _, ok := workloads()[wl.Name]; !ok {
			t.Errorf("declared workload %q does not exist", wl.Name)
		}
	}
}
