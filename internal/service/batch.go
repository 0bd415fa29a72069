package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"errors"
	"io"
	"net/http"
	"sync"
)

// The POST /v1/batch route. A client that asks again for results the
// cache holds is the common case (the hot-repeat workload), so a repeat
// costs one cache lookup per request and one write:
//
//   - The route remembers the bodies whose every item came back cached,
//     keyed by the body's SHA-256, with each request prepared: in
//     canonical form, with its cache hash and ring key. A repeated body
//     skips decoding, and the router and the shard skip normalising and
//     hashing.
//   - Each cache entry keeps its result's JSON as a hit serves it. When
//     every item of a reply is a hit, the reply is those encodings in
//     the fixed framing, byte-identical to Reply's.
//
// Every reply is still assembled by Backend.Batch from the owning
// shards' caches, so hit accounting, LRU order, down shards and
// evictions behave as for any other body.

const (
	// batchMemoBodies bounds the bodies the batch memo holds: the
	// default result-cache capacity.
	batchMemoBodies = 1024
	// batchMemoEntryBytes bounds one memo entry by the canonical JSON
	// of its requests, so a large body cannot pin megabytes.
	batchMemoEntryBytes = 16 << 10
	// maxBodyBytes caps every request body the API reads.
	maxBodyBytes = 1 << 20
)

// batchMemo is an LRU of prepared batch bodies.
type batchMemo struct {
	mu    sync.Mutex
	ll    *list.List // of *memoEntry, front = most recently used
	items map[[sha256.Size]byte]*list.Element
}

type memoEntry struct {
	sum  [sha256.Size]byte
	reqs []Request // prepared; shared read-only
}

func newBatchMemo() *batchMemo {
	return &batchMemo{ll: list.New(), items: make(map[[sha256.Size]byte]*list.Element)}
}

// get returns the prepared requests of the body with SHA-256 sum.
func (m *batchMemo) get(sum [sha256.Size]byte) ([]Request, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[sum]
	if !ok {
		return nil, false
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memoEntry).reqs, true
}

// admit remembers a body that decoded to reqs, unless a request has no
// prepared form or the entry would exceed batchMemoEntryBytes.
func (m *batchMemo) admit(sum [sha256.Size]byte, reqs []Request) {
	prepared := make([]Request, len(reqs))
	total := 0
	for i, req := range reqs {
		p, size, ok := req.prepare()
		total += size
		if !ok || total > batchMemoEntryBytes {
			return
		}
		prepared[i] = p
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.items[sum]; ok {
		return
	}
	m.items[sum] = m.ll.PushFront(&memoEntry{sum: sum, reqs: prepared})
	if m.ll.Len() > batchMemoBodies {
		tail := m.ll.Back()
		m.ll.Remove(tail)
		delete(m.items, tail.Value.(*memoEntry).sum)
	}
}

// serveBatch answers POST /v1/batch: {"requests":[...]} or
// {"table1":true}, synchronously. A body is read whole under the 1 MiB
// cap and decoded as Decode would; only its first JSON value counts.
func serveBatch(w http.ResponseWriter, r *http.Request, b Backend, memo *batchMemo) {
	raw, readErr := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var sum [sha256.Size]byte
	if readErr == nil {
		sum = sha256.Sum256(raw)
		if reqs, ok := memo.get(sum); ok {
			writeItems(w, b.Batch(r.Context(), reqs))
			return
		}
	}
	var body struct {
		Requests []Request `json:"requests"`
		Table1   bool      `json:"table1"`
	}
	// A failed read reaches the decoder where it happened, as it would
	// reading the body directly.
	var src io.Reader = bytes.NewReader(raw)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	if !decode(w, src, &body) {
		return
	}
	reqs := body.Requests
	if body.Table1 {
		reqs = append(reqs, Table1Requests()...)
	}
	if len(reqs) == 0 {
		Fail(w, http.StatusBadRequest, errors.New("empty batch: set requests or table1"))
		return
	}
	items := b.Batch(r.Context(), reqs)
	if readErr == nil && allCached(items) {
		memo.admit(sum, reqs)
	}
	writeItems(w, items)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// allCached reports whether every item is a result served from cache.
func allCached(items []BatchItem) bool {
	for _, it := range items {
		if it.Result == nil || !it.Result.Cached {
			return false
		}
	}
	return true
}

// writeItems answers 200 with the batch reply: the items' stored hit
// encodings when every item is a cache hit, Reply otherwise. Both write
// the same bytes.
func writeItems(w http.ResponseWriter, items []BatchItem) {
	if body := encodeHits(items); body != nil {
		writeJSON(w, http.StatusOK, body)
		return
	}
	Reply(w, http.StatusOK, map[string]any{"items": items})
}

// encodeHits frames the items' stored hit encodings as Reply would
// encode {"items": items}; nil unless every item is a cache hit whose
// result encodes.
func encodeHits(items []BatchItem) []byte {
	const head, item, tail = `{"items":[`, `{"result":},`, "]}\n"
	n := len(head) + len(tail)
	for _, it := range items {
		if it.hit == nil {
			return nil
		}
		enc := it.hit.hitJSON()
		if enc == nil {
			return nil
		}
		n += len(item) + len(enc)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, head...)
	for i, it := range items {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"result":`...)
		buf = append(buf, it.hit.hitJSON()...)
		buf = append(buf, '}')
	}
	return append(buf, tail...)
}
