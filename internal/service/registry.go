package service

import (
	"fmt"
	"sort"
	"sync"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/device"
	"github.com/fastvg/fastvg/internal/grid"
	"github.com/fastvg/fastvg/internal/qflow"
)

// Registry owns the instruments the service extracts from: the qflow
// benchmark suite (generated CSDs are cached so repeat jobs stamp fresh
// replay instruments without re-simulating 40k-pixel rasters) and live
// simulated devices opened as sessions. Many instruments can be owned and
// probed concurrently; each individual session serialises its jobs, the way
// a physical instrument serialises measurements.
type Registry struct {
	mu       sync.Mutex
	suite    []*qflow.Benchmark
	grids    map[int]*benchEntry
	sessions map[string]*Session
	nextID   int
	idPrefix string // stamped on minted session IDs; see Config.InstanceID
}

// setIDPrefix makes minted session IDs carry the owning shard
// ("s3-sess-0001"); the service wires Config.InstanceID through here.
func (r *Registry) setIDPrefix(prefix string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.idPrefix = prefix
}

// benchEntry generates a benchmark's CSD exactly once, even under
// concurrent first requests for the same index.
type benchEntry struct {
	once sync.Once
	g    *grid.Grid
	err  error
}

// NewRegistry loads the benchmark suite definitions (cheap — no CSDs are
// generated until a job needs one).
func NewRegistry() (*Registry, error) {
	suite, err := qflow.Suite()
	if err != nil {
		return nil, err
	}
	return &Registry{
		suite:    suite,
		grids:    make(map[int]*benchEntry),
		sessions: make(map[string]*Session),
	}, nil
}

// Suite returns the benchmark definitions.
func (r *Registry) Suite() []*qflow.Benchmark { return r.suite }

// Benchmark returns the suite benchmark with 1-based index idx and a fresh
// replay instrument over its (cached) CSD. Every job gets its own
// instrument, so probe accounting starts at zero and concurrent jobs on the
// same benchmark never share state.
func (r *Registry) Benchmark(idx int) (*device.DatasetInstrument, *qflow.Benchmark, error) {
	var b *qflow.Benchmark
	for _, cand := range r.suite {
		if cand.Index == idx {
			b = cand
			break
		}
	}
	if b == nil {
		return nil, nil, fmt.Errorf("service: benchmark index %d not in suite", idx)
	}
	r.mu.Lock()
	entry, ok := r.grids[idx]
	if !ok {
		entry = &benchEntry{}
		r.grids[idx] = entry
	}
	r.mu.Unlock()
	entry.once.Do(func() {
		entry.g, entry.err = b.Generate()
	})
	if entry.err != nil {
		return nil, nil, entry.err
	}
	inst, err := device.NewDatasetInstrument(entry.g, b.Window, device.DefaultDwell)
	if err != nil {
		return nil, nil, err
	}
	return inst, b, nil
}

// Session is a live simulated device owned by the registry. Jobs targeting
// it share one instrument — probes memoise across jobs and the virtual clock
// keeps running — which is the hardware-session workload, as opposed to the
// stateless benchmark/sim jobs the cache deduplicates.
type Session struct {
	id   string
	spec device.DoubleDotSpec
	win  csd.Window // immutable after OpenSim

	mu   sync.Mutex // serialises jobs on the instrument
	inst *device.SimInstrument

	// Accounting is snapshotted after each job under its own lock so that
	// monitoring (Info, the sessions/stats endpoints) never blocks behind a
	// long-running extraction holding mu.
	statMu    sync.Mutex
	jobs      int
	lastStats device.Stats
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Spec returns the device specification the session was opened with.
func (s *Session) Spec() device.DoubleDotSpec { return s.spec }

// Window returns the session device's scan window.
func (s *Session) Window() csd.Window { return s.win }

// withInstrument runs fn holding the session's instrument exclusively, then
// refreshes the accounting snapshot.
func (s *Session) withInstrument(fn func(*device.SimInstrument, csd.Window) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := fn(s.inst, s.win)
	s.statMu.Lock()
	s.jobs++
	s.lastStats = s.inst.Stats()
	s.statMu.Unlock()
	return err
}

// SessionInfo is a serialisable session snapshot.
type SessionInfo struct {
	ID     string               `json:"id"`
	Spec   device.DoubleDotSpec `json:"spec"`
	Window csd.Window           `json:"window"`
	Jobs   int                  `json:"jobs"` // jobs executed on the session
	Stats  device.Stats         `json:"stats"`
}

// Info returns a snapshot of the session: identity fields plus accounting
// as of the last completed job. It never waits on a running extraction.
func (s *Session) Info() SessionInfo {
	s.statMu.Lock()
	jobs, stats := s.jobs, s.lastStats
	s.statMu.Unlock()
	return SessionInfo{
		ID:     s.id,
		Spec:   s.spec,
		Window: s.win,
		Jobs:   jobs,
		Stats:  stats,
	}
}

// OpenSim builds a fresh simulated device from spec and registers it as a
// session. A spec outside DoubleDotSpec.CheckLimits is rejected.
func (r *Registry) OpenSim(spec device.DoubleDotSpec) (*Session, error) {
	if err := spec.CheckLimits(); err != nil {
		return nil, err
	}
	inst, win, err := spec.Build()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := fmt.Sprintf("sess-%04d", r.nextID)
	if r.idPrefix != "" {
		id = r.idPrefix + "-" + id
	}
	s := &Session{
		id:   id,
		spec: spec,
		inst: inst,
		win:  win,
	}
	r.sessions[s.id] = s
	return s, nil
}

// SessionCount returns the number of open sessions without touching any
// session's accounting.
func (r *Registry) SessionCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Session looks up a session by ID.
func (r *Registry) Session(id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// CloseAll removes every session — the shutdown path after the worker pool
// has drained, when no job can still be holding an instrument.
func (r *Registry) CloseAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.sessions)
}

// CloseSession removes a session; its instrument is released.
func (r *Registry) CloseSession(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sessions[id]
	delete(r.sessions, id)
	return ok
}

// Sessions lists open sessions sorted by ID.
func (r *Registry) Sessions() []SessionInfo {
	r.mu.Lock()
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()

	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
