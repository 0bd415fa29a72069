package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/fastvg/fastvg/internal/telemetry"
)

// Kind namespaces journal records. State kinds are log-structured: a later
// record with the same key supersedes the earlier one, and compaction keeps
// only the survivor. Audit kinds are append-only event logs, retained up to
// the AuditCap most recent records.
type Kind uint8

// kindEpoch is the store's internal compaction-epoch marker: the first
// frame of every snapshot and of every freshly truncated log records the
// compaction generation that produced it. On open, a log whose epoch does
// not match the snapshot's is a stale pre-compaction log left behind by a
// crash between the snapshot rename and the log truncation; its records
// are already in the snapshot, so it is discarded instead of replayed —
// replaying it would duplicate every append-only audit record.
const kindEpoch Kind = 0

// kindTombstone is the store's internal deletion marker: the frame data
// is the target kind (one byte) followed by the target key. Tombstones
// live only in the log — a snapshot is rewritten from live state, so
// compaction erases both the deleted records and the marker. Shard
// rebalance is the writer: records shipped to another shard's journal
// are tombstoned in the source so exactly one shard owns each key.
const kindTombstone Kind = 255

// kindBatch is the store's internal group marker: the frame data is the
// member records written by one PutBatch, each a uvarint length followed
// by a record payload, all under the frame's one CRC. Open applies a
// batch's members all together or not at all; compaction writes them as
// ordinary records, so batches live only in the log.
const kindBatch Kind = 254

// The record kinds the repository persists.
const (
	// KindCacheEntry is one extraction-service result-cache entry; the key
	// is the canonical request hash, the data a service cacheRecord (the
	// normalized request plus its result).
	KindCacheEntry Kind = 1
	// KindFleetDevice is one fleet device's per-pair calibration state,
	// keyed by device ID. Its history ring is not in it: the ring restores
	// from the device's newest KindFleetEvent records, which the fleet
	// journals in the same batch as the state they produced.
	KindFleetDevice Kind = 2
	// KindFleetClock is the fleet manager's clock, budget window and
	// fleet-wide counters; the key is empty.
	KindFleetClock Kind = 3
	// KindFleetEvent is one fleet calibration-history event (audit log),
	// keyed by device ID. Unlike the in-memory history ring these are never
	// superseded, only bounded by AuditCap.
	KindFleetEvent Kind = 4
	// KindChainPair is one pair result of a persisted chain extraction,
	// keyed by "<request hash>/<pair index>" — the per-pair journal record
	// behind a chain job's cache entry, so individual pair matrices are
	// addressable (and auditable) without decoding the whole chain result.
	KindChainPair Kind = 5
	// KindSurrogateModel is one trained surrogate twin
	// (internal/surrogate.Model.Encode), keyed by the service's device key —
	// "sim/<spec hash>" or "chain/<spec hash>/<pair index>". A restarted
	// daemon warm-starts its twins from these instead of retraining from
	// traces.
	KindSurrogateModel Kind = 6
	// KindSpan is one telemetry span tree (telemetry.Span.Encode) keyed by
	// the request hash of the extraction it times — the newest tree per
	// request supersedes older ones, and `vgxreplay -spans` dumps them.
	KindSpan Kind = 7
	// KindAlertEvent is one alert firing/resolved transition (audit log),
	// keyed by rule name, data an internal/alert.Event. A restarted daemon
	// replays these so an alert that was firing at kill -9 resumes firing
	// instead of re-announcing; `vgxreplay -alerts` dumps the history.
	KindAlertEvent Kind = 8
)

// Audit reports whether records of this kind accumulate as an event log
// instead of superseding by key.
func (k Kind) Audit() bool { return k == KindFleetEvent || k == KindAlertEvent }

// internal reports whether k is one of the store's own frame kinds, which
// callers cannot write as records.
func (k Kind) internal() bool { return k == kindEpoch || k == kindBatch || k == kindTombstone }

// Record is one journal entry.
type Record struct {
	Kind Kind
	Key  string
	Data []byte
}

// Options tunes a Store; the zero value is production-reasonable.
type Options struct {
	// CompactEvery is the number of appended records between automatic
	// compactions (snapshot rewrite + log truncation); default 4096. Each
	// member of a batch counts as one record.
	CompactEvery int
	// AuditCap bounds the retained records of each audit kind; default 65536.
	AuditCap int
}

func (o *Options) fillDefaults() {
	if o.CompactEvery <= 0 {
		o.CompactEvery = 4096
	}
	if o.AuditCap <= 0 {
		o.AuditCap = 65536
	}
}

// Stats is a snapshot of the store's accounting.
type Stats struct {
	Records        int   `json:"records"`        // live records across all kinds
	Appends        int64 `json:"appends"`        // records appended this process
	Compactions    int64 `json:"compactions"`    // snapshot rewrites this process
	LogBytes       int64 `json:"logBytes"`       // current journal.log size
	RecoveredBytes int64 `json:"recoveredBytes"` // torn tail truncated at open
	LoadedRecords  int   `json:"loadedRecords"`  // records restored at open
}

// entry is one live or superseded in-memory record slot.
type entry struct {
	rec  Record
	dead bool
}

// kindState is the in-memory image of one kind's records, in append order
// with superseded state-kind entries marked dead until the slice is
// compacted in place.
type kindState struct {
	entries []entry
	index   map[string]int // state kinds only: key -> live slot
	dead    int
}

// Store is a durable record journal. All methods are safe for concurrent
// use. Appends go straight to the log file (one write syscall per Put,
// Delete or PutBatch, no user-space buffering), so a killed process loses
// at most the append being written when it died — one record, or one
// whole batch — and recovery truncates that torn tail.
type Store struct {
	dir string
	opt Options

	mu      sync.Mutex
	log     *os.File
	logSize int64
	pending int // appends since the last compaction
	epoch   uint64
	buf     []byte
	kinds   map[Kind]*kindState
	stats   Stats
	closed  bool
	met     *Metrics
}

// Metrics mirrors the store's accounting into a telemetry registry:
// append count and latency, compactions, and the journal's current size
// in bytes and live records. Attach with SetMetrics before traffic.
type Metrics struct {
	Appends       *telemetry.Counter
	Compactions   *telemetry.Counter
	AppendSeconds *telemetry.Histogram
	LogBytes      *telemetry.Gauge
	Records       *telemetry.Gauge
}

// NewMetrics registers the vgx_store_* family set on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Appends:       reg.Counter("vgx_store_appends_total", "Records appended to the journal this process."),
		Compactions:   reg.Counter("vgx_store_compactions_total", "Snapshot rewrites this process."),
		AppendSeconds: reg.Histogram("vgx_store_append_seconds", "Latency of one journal append (write syscall included).", telemetry.SecondsBuckets),
		LogBytes:      reg.Gauge("vgx_store_log_bytes", "Current journal.log size in bytes."),
		Records:       reg.Gauge("vgx_store_records", "Live records across all kinds."),
	}
}

// SetMetrics attaches m; nil detaches. The gauges are primed from the
// current state so a warm-started store reports its recovered size
// immediately.
func (s *Store) SetMetrics(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = m
	if m != nil {
		m.LogBytes.Set(float64(s.logSize))
		m.Records.Set(float64(s.liveLocked()))
	}
}

// liveLocked counts live records across kinds; O(number of kinds).
func (s *Store) liveLocked() int {
	n := 0
	for _, ks := range s.kinds {
		n += len(ks.entries) - ks.dead
	}
	return n
}

// epochRecord renders the compaction-epoch marker frame.
func epochRecord(epoch uint64) []byte {
	return appendRecordPayload(nil, Record{Kind: kindEpoch, Data: binary.AppendUvarint(nil, epoch)})
}

func (s *Store) snapPath() string { return filepath.Join(s.dir, "journal.snap") }
func (s *Store) logPath() string  { return filepath.Join(s.dir, "journal.log") }

// Open loads (or initialises) the store at dir: the snapshot is loaded
// first, then the log is replayed over it. A torn tail in either file — the
// signature of a crash mid-write — is truncated and recovery proceeds with
// the clean prefix; only a wrong magic or version fails.
func Open(dir string, opt Options) (*Store, error) {
	opt.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opt: opt, kinds: make(map[Kind]*kindState)}
	if err := s.loadFile(s.snapPath(), false); err != nil {
		return nil, err
	}
	if err := s.loadFile(s.logPath(), true); err != nil {
		return nil, err
	}
	s.stats.LoadedRecords = s.liveLocked()

	f, err := os.OpenFile(s.logPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if st.Size() < int64(fileHeaderLen) {
		// Fresh log (or one discarded during load): stamp the header and,
		// past the first compaction, the epoch marker that ties it to the
		// snapshot (epoch 0 is implicit for a never-compacted store).
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		buf := AppendFileHeader(nil, JournalMagic)
		if s.epoch > 0 {
			buf = AppendFrame(buf, epochRecord(s.epoch))
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s.log = f
	if s.logSize, err = f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// loadFile replays one journal file into the in-memory state. isLog marks
// the append log, which gets two extra behaviours: a torn tail is
// physically truncated (so the append offset after recovery sits at the
// last clean frame), and the whole file is discarded unless its epoch
// marker matches the snapshot's — a mismatched log is the pre-compaction
// leftover of a crash between the snapshot rename and the log truncation,
// and its records (including the append-only audit kinds) are already in
// the snapshot.
func (s *Store) loadFile(path string, isLog bool) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	rest, err := CheckFileHeader(b, JournalMagic)
	if errors.Is(err, ErrTorn) {
		// A partial header: everything written is gone, recover to empty.
		if isLog {
			s.stats.RecoveredBytes += int64(len(b))
			return os.Remove(path)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}

	// Decode every clean frame first; nothing is applied until the log's
	// epoch has been checked against the snapshot's.
	var recs []Record
	var fileEpoch uint64
	good := int64(fileHeaderLen)
	torn := int64(0)
	for {
		payload, next, err := NextFrame(rest)
		if err != nil {
			torn = int64(len(rest)) // torn tail: keep the clean prefix
			break
		}
		if payload == nil {
			break
		}
		rec, err := decodeRecordPayload(payload)
		var members []Record
		if err == nil && rec.Kind == kindBatch {
			members, err = decodeBatch(rec.Data)
		}
		if err != nil {
			// A frame that passed its CRC but does not decode — a record, or
			// any member of a batch — is corruption, not a torn append; treat
			// it like a torn tail all the same so a restart never fails on
			// it, and a batch never half-applies.
			torn = int64(len(rest))
			break
		}
		switch rec.Kind {
		case kindEpoch:
			if e, n := binary.Uvarint(rec.Data); n > 0 && good == int64(fileHeaderLen) {
				fileEpoch = e
			}
		case kindBatch:
			for _, m := range members {
				m.Data = append([]byte(nil), m.Data...)
				recs = append(recs, m)
			}
		default:
			rec.Data = append([]byte(nil), rec.Data...)
			recs = append(recs, rec)
		}
		good += int64(len(rest) - len(next))
		rest = next
	}

	if isLog && fileEpoch != s.epoch {
		// Stale log from before the compaction that produced the loaded
		// snapshot (or one that lost its epoch marker to a torn tail):
		// every record is already in the snapshot, so replaying it would
		// duplicate the audit kinds. Drop it; Open restarts the log.
		s.stats.RecoveredBytes += int64(len(b))
		return os.Remove(path)
	}
	if !isLog {
		s.epoch = fileEpoch
	}
	for _, rec := range recs {
		s.apply(rec)
	}
	if torn > 0 {
		s.stats.RecoveredBytes += torn
		if isLog {
			if terr := os.Truncate(path, good); terr != nil {
				return fmt.Errorf("store: truncating torn tail: %w", terr)
			}
		}
	}
	return nil
}

// apply merges one record into the in-memory state. Caller holds mu (or is
// single-threaded in Open).
func (s *Store) apply(rec Record) {
	if rec.Kind == kindTombstone {
		if len(rec.Data) >= 1 {
			s.applyDelete(Kind(rec.Data[0]), string(rec.Data[1:]))
		}
		return
	}
	ks := s.kinds[rec.Kind]
	if ks == nil {
		ks = &kindState{}
		if !rec.Kind.Audit() {
			ks.index = make(map[string]int)
		}
		s.kinds[rec.Kind] = ks
	}
	if rec.Kind.Audit() {
		ks.entries = append(ks.entries, entry{rec: rec})
		// Amortised trim: drop the oldest half-cap once the slice doubles.
		if len(ks.entries) > 2*s.opt.AuditCap {
			keep := ks.entries[len(ks.entries)-s.opt.AuditCap:]
			ks.entries = append(ks.entries[:0], keep...)
		}
		return
	}
	if i, ok := ks.index[rec.Key]; ok {
		ks.entries[i].dead = true
		ks.dead++
	}
	ks.entries = append(ks.entries, entry{rec: rec})
	ks.index[rec.Key] = len(ks.entries) - 1
	if ks.dead > len(ks.entries)/2 {
		ks.compactSlice()
	}
}

// compactSlice drops dead slots in place, preserving order.
func (ks *kindState) compactSlice() {
	live := ks.entries[:0]
	for _, e := range ks.entries {
		if !e.dead {
			if ks.index != nil {
				ks.index[e.rec.Key] = len(live)
			}
			live = append(live, e)
		}
	}
	ks.entries = live
	ks.dead = 0
}

// applyDelete removes kind/key from the in-memory state: the live record
// for a state kind, every retained record with that key for an audit
// kind. Caller holds mu (or is single-threaded in Open).
func (s *Store) applyDelete(kind Kind, key string) {
	ks := s.kinds[kind]
	if ks == nil {
		return
	}
	if kind.Audit() {
		for i := range ks.entries {
			if !ks.entries[i].dead && ks.entries[i].rec.Key == key {
				ks.entries[i].dead = true
				ks.dead++
			}
		}
	} else if i, ok := ks.index[key]; ok {
		ks.entries[i].dead = true
		ks.dead++
		delete(ks.index, key)
	}
	if ks.dead > len(ks.entries)/2 {
		ks.compactSlice()
	}
}

// Delete journals a tombstone for kind/key and drops the record from the
// in-memory state — the live record for a state kind, every retained
// record with that key for an audit kind. Deleting an absent key is a
// no-op and writes nothing. The tombstone replays on restart and
// disappears at the next compaction (snapshots hold only live state).
func (s *Store) Delete(kind Kind, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	ks := s.kinds[kind]
	if ks == nil {
		return nil
	}
	present := false
	if kind.Audit() {
		for i := range ks.entries {
			if !ks.entries[i].dead && ks.entries[i].rec.Key == key {
				present = true
				break
			}
		}
	} else {
		_, present = ks.index[key]
	}
	if !present {
		return nil
	}
	return s.appendLocked(Record{Kind: kindTombstone, Data: append([]byte{byte(kind)}, key...)})
}

// Put appends one record to the journal and merges it into the in-memory
// state. The data is copied. Every CompactEvery appends the store compacts
// automatically.
func (s *Store) Put(kind Kind, key string, data []byte) error {
	return s.PutBatch(Record{Kind: kind, Key: key, Data: data})
}

// PutBatch appends recs to the journal as one frame — one CRC, one write —
// and merges them into the in-memory state in order. Open replays a batch
// all or nothing, so a crash mid-write loses every member, never some.
// Each member counts as one append toward Stats.Appends and CompactEvery,
// and compaction rewrites the members as ordinary records. The data is
// copied; an empty batch writes nothing.
func (s *Store) PutBatch(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	own := make([]Record, len(recs))
	for i, rec := range recs {
		if rec.Kind.internal() {
			return fmt.Errorf("store: kind %d is reserved", rec.Kind)
		}
		own[i] = Record{Kind: rec.Kind, Key: rec.Key, Data: append([]byte(nil), rec.Data...)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.appendLocked(own...)
}

// appendLocked writes recs to the log as one frame — a plain record frame
// for one record, a kindBatch frame for several — then merges them into
// the in-memory state. recs must not alias caller memory. Caller holds mu
// on an open store.
func (s *Store) appendLocked(recs ...Record) error {
	var start time.Time
	if s.met != nil {
		start = time.Now()
	}
	// Encode the payload in place behind a header placeholder, then seal.
	s.buf = append(s.buf[:0], make([]byte, frameHeaderLen)...)
	if len(recs) == 1 {
		s.buf = appendRecordPayload(s.buf, recs[0])
	} else {
		s.buf = appendBatchPayload(s.buf, recs)
	}
	if n := len(s.buf) - frameHeaderLen; n > MaxFramePayload {
		return fmt.Errorf("store: %d-byte frame exceeds the %d-byte limit", n, MaxFramePayload)
	}
	sealFrame(s.buf)
	if _, err := s.log.Write(s.buf); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.logSize += int64(len(s.buf))
	for _, rec := range recs {
		s.apply(rec)
	}
	s.stats.Appends += int64(len(recs))
	s.pending += len(recs)
	if s.met != nil {
		s.met.AppendSeconds.Observe(time.Since(start).Seconds())
		s.met.Appends.Add(int64(len(recs)))
		s.met.LogBytes.Set(float64(s.logSize))
		s.met.Records.Set(float64(s.liveLocked()))
	}
	if s.pending >= s.opt.CompactEvery {
		return s.compactLocked()
	}
	return nil
}

// Get returns the live record data for a state-kind key.
func (s *Store) Get(kind Kind, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.kinds[kind]
	if ks == nil || ks.index == nil {
		return nil, false
	}
	i, ok := ks.index[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), ks.entries[i].rec.Data...), true
}

// Records returns the live records of one kind, oldest first (for state
// kinds that is least-recently-written first, the order a warm-started LRU
// wants). The returned records do not alias store memory.
func (s *Store) Records(kind Kind) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.kinds[kind]
	if ks == nil {
		return nil
	}
	out := make([]Record, 0, len(ks.entries)-ks.dead)
	for _, e := range ks.entries {
		if e.dead {
			continue
		}
		r := e.rec
		r.Data = append([]byte(nil), r.Data...)
		out = append(out, r)
	}
	return out
}

// Compact rewrites the snapshot from the live in-memory state (atomically,
// via rename) and truncates the log. Audit kinds keep their newest AuditCap
// records.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	newEpoch := s.epoch + 1
	buf := AppendFileHeader(nil, JournalMagic)
	buf = AppendFrame(buf, epochRecord(newEpoch))
	kinds := make([]Kind, 0, len(s.kinds))
	for k := range s.kinds {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		ks := s.kinds[k]
		ents := ks.entries
		if k.Audit() && len(ents) > s.opt.AuditCap {
			ents = ents[len(ents)-s.opt.AuditCap:]
		}
		for _, e := range ents {
			if e.dead {
				continue
			}
			// Encode the frame in place, as appendLocked does.
			at := len(buf)
			buf = append(buf, make([]byte, frameHeaderLen)...)
			buf = appendRecordPayload(buf, e.rec)
			sealFrame(buf[at:])
		}
	}
	tmp := s.snapPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// The snapshot now owns everything: restart the log at the new epoch.
	// Truncate-then-seek keeps the same file handle valid; the epoch frame
	// ties the fresh log to the snapshot, so a crash anywhere in this
	// sequence leaves either a mismatched (discarded on open) or a
	// matching-and-empty log — never one that replays into duplicates.
	if err := s.log.Truncate(int64(fileHeaderLen)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.log.Seek(int64(fileHeaderLen), 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	marker := AppendFrame(nil, epochRecord(newEpoch))
	if _, err := s.log.Write(marker); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.epoch = newEpoch
	s.logSize = int64(fileHeaderLen) + int64(len(marker))
	s.pending = 0
	s.stats.Compactions++
	if s.met != nil {
		s.met.Compactions.Inc()
		s.met.LogBytes.Set(float64(s.logSize))
		s.met.Records.Set(float64(s.liveLocked()))
	}
	// Trim in-memory audit rings to what the snapshot retained.
	for _, k := range kinds {
		ks := s.kinds[k]
		if k.Audit() && len(ks.entries) > s.opt.AuditCap {
			keep := ks.entries[len(ks.entries)-s.opt.AuditCap:]
			ks.entries = append(ks.entries[:0], keep...)
		}
	}
	return nil
}

// Sync flushes the log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. Further Puts fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	serr := s.log.Sync()
	cerr := s.log.Close()
	if serr != nil {
		return fmt.Errorf("store: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("store: %w", cerr)
	}
	return nil
}

// Stats returns a snapshot of the store accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = s.liveLocked()
	st.LogBytes = s.logSize
	return st
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }
