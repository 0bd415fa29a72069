// Batched probing: the zero-allocation row store behind the simulated
// instruments' memoisation, the BatchInstrument contract, and the recorded
// dataset's full-grid copy.
//
// The contract of every batch method is bit-for-bit parity with the scalar
// path: probing a batch returns exactly the currents, Stats and noise
// realisation that the equivalent sequence of GetCurrent calls would have
// produced. A simulated instrument's full window is acquired by csd.Acquire
// one CurrentRow per row, in probe order on the calling goroutine, so the
// virtual clock and every noise process advance exactly as the scalar
// raster advances them.
package device

import (
	"cmp"
	"slices"
	"sync"

	"github.com/fastvg/fastvg/internal/csd"
	"github.com/fastvg/fastvg/internal/grid"
)

// BatchInstrument is the batched probing contract: a whole scan row or an
// arbitrary probe list served in one call, bit-identically to the
// equivalent GetCurrent sequence. Both simulated instrument kinds implement
// it; csd.Acquire routes full-raster acquisition through it automatically.
type BatchInstrument interface {
	Instrument
	// CurrentRow measures (v1s[i], v2) into out[i] for every i, in slice
	// order. out must hold at least len(v1s) elements.
	CurrentRow(v2 float64, v1s, out []float64)
	// ProbeMany measures (v1s[i], v2s[i]) into out[i] for every i, in slice
	// order. out must hold at least len(v1s) elements.
	ProbeMany(v1s, v2s, out []float64)
}

// memoRows is the grid-aligned memoisation store of both simulated
// instrument kinds: measured currents bucketed by quantised-v2 row, each
// row a flat []float64 with a stamp per cell. It replaces the former
// map[[2]int64]float64 so that, once a row buffer exists, a probe costs a
// cached row pointer and two slice indexes — no hashing, no allocation.
//
// The store lives in epochs: a cell is set when its stamp equals the
// current epoch, so reset opens a new, empty epoch by bumping a counter and
// never walks the rows. Stamps are 8 bits, the size of the set flag they
// replace. When the epoch wraps, a stamp from 255 epochs ago could read as
// current, so each row clears its stamps on its first use after a wrap
// (and rows not yet used since are skipped as empty).
//
// A store sized for a scan window (fitWindow) indexes the window's rows in
// a slice by their offset from the window's first row cell and keeps the
// map for rows outside it. It starts each row at the window's first column
// cell, so a row never grows leftward within the window, and caps a row's
// growth at the window's width, so it grows at most once for windows up to
// twice memoRowCells wide.
//
// A row reaches farReach cells beyond its window's columns; an unsized
// store's row reaches farReach cells either side of the first cell it
// took. A cell beyond that goes to the far map instead of stretching the
// row, so a row stays a few KiB however far apart its probes land. Which
// place holds a cell depends on the cell alone, and the far map, rarely
// used, is cleared with the epoch.
//
// Rows come from rowPool and go back to it when the store is released: a
// recycled row keeps its buffers' capacity, takes the store's wrap count
// and clears the stamps of every cell it hands out, so it reads exactly as
// a fresh row does.
type memoRows struct {
	rows    map[int64]*memoRow  // rows outside dense (every row when unsized)
	dense   []*memoRow          // the sized window's rows, by key − rowLo
	far     map[farCell]float64 // the current epoch's cells beyond their row's reach
	rowLo   int64               // first row cell of the sized window
	lastKey int64
	last    *memoRow
	count   int    // cells memoised in the current epoch
	epoch   uint8  // stamp of the current epoch's cells; never 0
	wraps   uint64 // times epoch has wrapped
	lo      int64  // first column cell of the sized window
	width   int    // the sized window's width in cells; 0 = unsized
}

// memoRowCells is a row's first allocation, so that a row probed only near
// the window's left edge stays small.
const memoRowCells = 64

// farReach is how many cells a row reaches beyond its window (see
// memoRows): with BuildPair's 129-cell pair window, a row spans at most
// 641 cells, 5.6 KiB.
const farReach = 256

// farCell keys a far map entry.
type farCell struct{ row, col int64 }

// rowPool holds the rows of released stores. The collector empties a
// sync.Pool, so it retains no more than recently released instruments
// held, which is bounded by the jobs running at once.
var rowPool sync.Pool // of *memoRow

// memoRow is one quantised-v2 row: vals[i] holds the current of v1 cell
// base+i where stamp[i] is the store's current epoch. Its cells lie in
// [reachLo, reachHi), set when it takes its first cell.
type memoRow struct {
	key              int64 // the row's quantised-v2 cell
	base             int64
	vals             []float64
	stamp            []uint8
	wraps            uint64 // the store's wrap count its stamps belong to
	reachLo, reachHi int64
}

func newMemoRows() memoRows {
	return memoRows{rows: make(map[int64]*memoRow), epoch: 1}
}

// fitWindow sizes the store for probes on win's pixels at pitches q1 along
// v1 and q2 along v2: the window's rows are indexed densely, and rows start
// at the window's first column cell and grow at most to its width. Call it
// before the first probe.
func (m *memoRows) fitWindow(win csd.Window, q1, q2 float64) {
	m.lo = quantKey(win.V1At(0), q1)
	m.width = int(quantKey(win.V1At(win.Cols-1), q1) - m.lo + 1)
	m.rowLo = quantKey(win.V2At(0), q2)
	m.dense = make([]*memoRow, quantKey(win.V2At(win.Rows-1), q2)-m.rowLo+1)
}

// row returns the bucket for a quantised-v2 key, creating it on first use
// and clearing stamps left from before an epoch wrap. A one-entry cache,
// small enough to inline, makes the common row-scan pattern skip the
// lookup.
func (m *memoRows) row(key int64) *memoRow {
	if m.last != nil && m.lastKey == key {
		return m.last
	}
	return m.lookup(key)
}

// lookup is row past its one-entry cache.
func (m *memoRows) lookup(key int64) *memoRow {
	var r *memoRow
	i := key - m.rowLo
	inDense := i >= 0 && i < int64(len(m.dense))
	if inDense {
		r = m.dense[i]
	} else {
		r = m.rows[key]
	}
	if r == nil {
		r, _ = rowPool.Get().(*memoRow)
		if r == nil {
			r = &memoRow{}
		}
		r.key, r.base, r.vals, r.stamp, r.wraps = key, 0, r.vals[:0], r.stamp[:0], m.wraps
		if inDense {
			m.dense[i] = r
		} else {
			m.rows[key] = r
		}
	} else if r.wraps != m.wraps {
		clear(r.stamp)
		r.wraps = m.wraps
	}
	m.lastKey, m.last = key, r
	return r
}

// reset opens a new, empty epoch in O(1), keeping the row buffers warm;
// only a far map that holds cells costs a clear.
func (m *memoRows) reset() {
	m.count = 0
	if len(m.far) > 0 {
		clear(m.far)
	}
	if m.epoch++; m.epoch == 0 {
		m.epoch = 1
		m.wraps++
		m.last = nil
	}
}

// release hands every row to rowPool and empties the store. Its owner
// must not probe it again.
func (m *memoRows) release() {
	for _, r := range m.rows {
		rowPool.Put(r)
	}
	for _, r := range m.dense {
		if r != nil {
			rowPool.Put(r)
		}
	}
	m.rows, m.dense, m.far, m.last, m.count = nil, nil, nil, nil, 0
}

// get returns the current epoch's value of cell c in row r.
func (m *memoRows) get(r *memoRow, c int64) (float64, bool) {
	i := c - r.base
	if i < 0 || i >= int64(len(r.vals)) || r.stamp[i] != m.epoch {
		if len(m.far) == 0 {
			return 0, false
		}
		v, ok := m.far[farCell{r.key, c}]
		return v, ok
	}
	return r.vals[i], true
}

// put records v as the current epoch's value of cell c in row r, which get
// has just reported unset.
func (m *memoRows) put(r *memoRow, c int64, v float64) {
	if len(r.vals) == 0 {
		if m.width > 0 {
			r.reachLo, r.reachHi = m.lo-farReach, m.lo+int64(m.width)+farReach
		} else {
			r.reachLo, r.reachHi = c-farReach, c+farReach+1
		}
	}
	m.count++
	if c < r.reachLo || c >= r.reachHi {
		if m.far == nil {
			m.far = make(map[farCell]float64)
		}
		m.far[farCell{r.key, c}] = v
		return
	}
	if len(r.vals) == 0 && c >= m.lo && c-m.lo < int64(m.width) {
		n := min(m.width, memoRowCells)
		r.base = m.lo
		r.resize(n, n)
	}
	i := r.grow(c, m.width)
	r.vals[i] = v
	r.stamp[i] = m.epoch
}

// cellsSorted collects the current epoch's cells as {v1 cell, v2 cell}
// pairs sorted by (v2, v1). Rows are stored sorted along v1 already, so only
// the row keys need sorting; map rows lie below or above the dense window.
// Far cells, when there are any, are merged in by one more sort.
func (m *memoRows) cellsSorted() [][2]int64 {
	keys := make([]int64, 0, len(m.rows))
	for k := range m.rows {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([][2]int64, 0, m.count)
	add := func(c2 int64, r *memoRow) {
		if r == nil || r.wraps != m.wraps {
			return
		}
		for i, e := range r.stamp {
			if e == m.epoch {
				out = append(out, [2]int64{r.base + int64(i), c2})
			}
		}
	}
	k := 0
	for ; k < len(keys) && keys[k] < m.rowLo; k++ {
		add(keys[k], m.rows[keys[k]])
	}
	for i, r := range m.dense {
		add(m.rowLo+int64(i), r)
	}
	for ; k < len(keys); k++ {
		add(keys[k], m.rows[keys[k]])
	}
	if len(m.far) > 0 {
		for c := range m.far {
			out = append(out, [2]int64{c.col, c.row})
		}
		slices.SortFunc(out, func(a, b [2]int64) int {
			return cmp.Or(cmp.Compare(a[1], b[1]), cmp.Compare(a[0], b[0]))
		})
	}
	return out
}

// resize sets the row's length to n cells, reusing its buffers when their
// capacity allows and allocating capacity newCap otherwise. Cells it adds
// carry stamp 0, which no epoch uses.
func (r *memoRow) resize(n, newCap int) {
	old := len(r.vals)
	if n <= cap(r.vals) {
		r.vals, r.stamp = r.vals[:n], r.stamp[:n]
		clear(r.vals[old:])
		clear(r.stamp[old:])
		return
	}
	nv := make([]float64, n, newCap)
	ns := make([]uint8, n, newCap)
	copy(nv, r.vals)
	copy(ns, r.stamp)
	r.vals, r.stamp = nv, ns
}

// grow extends the row to cover cell c, which lies in its reach, and
// returns c's index. A row growing rightward to a cell within width cells
// of its base stops at width cells, and no growth passes the reach.
func (r *memoRow) grow(c int64, width int) int64 {
	if len(r.vals) == 0 {
		r.base = c
		r.resize(1, memoRowCells)
		return 0
	}
	i := c - r.base
	if i < 0 {
		// Extend leftward: shift by at least the current length, as far as
		// the reach allows, so repeated left growth stays amortised.
		pad := max(-i, min(int64(len(r.vals)), r.base-r.reachLo))
		nv := make([]float64, pad+int64(len(r.vals)))
		ns := make([]uint8, pad+int64(len(r.stamp)))
		copy(nv[pad:], r.vals)
		copy(ns[pad:], r.stamp)
		r.vals, r.stamp = nv, ns
		r.base -= pad
		i = c - r.base
	}
	if i >= int64(len(r.vals)) {
		need := int(i + 1)
		newCap := 2 * cap(r.vals)
		if newCap > width && need <= width {
			newCap = width
		}
		newCap = min(newCap, int(r.reachHi-r.base))
		if newCap < need {
			newCap = need
		}
		r.resize(need, newCap)
	}
	return i
}

// CurrentRow implements BatchInstrument: one memo-row lookup and one device
// table check serve the whole row, and the inner loop runs the same
// fixed-arity physics/sensor/noise sequence the scalar path runs — same
// currents, same Stats, same noise draws.
func (s *SimInstrument) CurrentRow(v2 float64, v1s, out []float64) {
	if s.released {
		panic(errReleased)
	}
	if s.Dev.Drift != nil {
		// Lever-arm drift makes the physics itself time-dependent, so the
		// clock-free inline replay below would diverge from the scalar path.
		// The scalar loop IS the contract here.
		for i, v1 := range v1s {
			out[i] = s.GetCurrent(v1, v2)
		}
		return
	}
	s.stats.RawCalls += len(v1s)
	memoised := s.QuantV1 > 0 && s.QuantV2 > 0
	var row *memoRow
	if memoised {
		row = s.memo.row(quantKey(v2, s.QuantV2))
	}
	tab := s.Dev.fast()
	fast := tab != nil && s.Dev.Sens.CanFast2()
	phys, sens, noise := s.Dev.Phys, &s.Dev.Sens, s.Dev.Noise
	for i, v1 := range v1s {
		var c1 int64
		if memoised {
			c1 = quantKey(v1, s.QuantV1)
			if v, ok := s.memo.get(row, c1); ok {
				out[i] = v
				continue
			}
		}
		s.stats.UniqueProbes++
		s.stats.Virtual += s.Dwell
		var v float64
		if fast {
			n1, n2 := tab.Ground(phys.Mu(0, v1, v2), phys.Mu(1, v1, v2))
			v = sens.Current2(v1, v2, n1, n2)
		} else {
			n1, n2 := phys.GroundState(v1, v2)
			v = sens.Current([]float64{v1, v2}, []int{n1, n2})
		}
		if noise != nil {
			v += noise.Sample(s.stats.Virtual.Seconds())
		}
		out[i] = v
		if memoised {
			s.record(row, c1, v)
		}
	}
}

// ProbeMany implements BatchInstrument. The memo's one-entry row cache
// keeps runs of probes sharing a v2 off the map.
func (s *SimInstrument) ProbeMany(v1s, v2s, out []float64) {
	for i := range v1s {
		out[i] = s.GetCurrent(v1s[i], v2s[i])
	}
}

// CurrentRow implements BatchInstrument: the row index and pixel base are
// resolved once, and each element replays the scalar path's probed-map and
// accounting updates.
func (d *DatasetInstrument) CurrentRow(v2 float64, v1s, out []float64) {
	d.stats.RawCalls += len(v1s)
	y := d.Win.YOf(v2)
	rowOff := y * d.Data.W
	for i, v1 := range v1s {
		x := d.Win.XOf(v1)
		idx := rowOff + x
		if !d.probed[idx] {
			d.probed[idx] = true
			d.stats.UniqueProbes++
			d.stats.Virtual += d.Dwell
		}
		out[i] = d.Data.At(x, y)
	}
}

// ProbeMany implements BatchInstrument.
func (d *DatasetInstrument) ProbeMany(v1s, v2s, out []float64) {
	for i := range v1s {
		out[i] = d.GetCurrent(v1s[i], v2s[i])
	}
}

// AcquireGrid replays the full window from the recorded dataset in one
// pass. The window-pixel → dataset-pixel mapping is resolved once per axis,
// so values, probed map and Stats come out bit-identical to the scalar
// raster without the per-probe interface and clamping work. The copy runs
// serially; workers is accepted only to satisfy csd.GridAcquirer.
func (d *DatasetInstrument) AcquireGrid(win csd.Window, _ int) (*grid.Grid, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	mx := make([]int, win.Cols)
	for x := range mx {
		mx[x] = d.Win.XOf(win.V1At(x))
	}
	my := make([]int, win.Rows)
	for y := range my {
		my[y] = d.Win.YOf(win.V2At(y))
	}
	g := grid.New(win.Cols, win.Rows)
	data := g.Data()
	src := d.Data.Data()
	d.stats.RawCalls += win.Cols * win.Rows
	for y, sy := range my {
		rowOff := sy * d.Data.W
		dst := data[y*win.Cols : (y+1)*win.Cols]
		for x, sx := range mx {
			idx := rowOff + sx
			if !d.probed[idx] {
				d.probed[idx] = true
				d.stats.UniqueProbes++
				d.stats.Virtual += d.Dwell
			}
			dst[x] = src[idx]
		}
	}
	return g, nil
}
