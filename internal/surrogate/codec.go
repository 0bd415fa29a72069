// Model serialization. A model encodes to one opaque byte blob designed to
// ride inside a store record (the journal's CRC frames provide integrity) or
// a trace meta field: uvarint version, the window (four float64 bounds plus
// uvarint cols/rows), the sample counter, the stored cells as strictly
// ascending (uvarint index, float64 value) pairs, and an optional
// transition-line fit. Decode validates every bound and never panics on
// arbitrary bytes — FuzzModelDecode mirrors the store's FuzzFrameDecode over
// this codec.

package surrogate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/fastvg/fastvg/internal/csd"
)

// codecVersion stamps encoded models; bump on layout change.
const codecVersion = 1

// maxModelDim bounds the decoded grid so a corrupt header can never drive a
// huge allocation (the largest real windows are a few hundred pixels).
const (
	maxModelDim   = 1 << 12
	maxModelCells = 1 << 20
)

// ErrModelFormat marks bytes that are not a valid encoded model.
var ErrModelFormat = errors.New("surrogate: bad model encoding")

// Encode serializes the model into one buffer, sized from the filled-cell
// count. The encoding is canonical: encoding a decoded model reproduces the
// same bytes.
func (m *Model) Encode() []byte {
	// At most: five uvarints and four window floats; per filled cell an
	// index no longer than the grid size's uvarint and a float; the fit
	// flag and seven fit floats.
	var scratch [binary.MaxVarintLen64]byte
	cell := len(binary.AppendUvarint(scratch[:0], uint64(len(m.filled)))) + 8
	buf := make([]byte, 0, 5*binary.MaxVarintLen64+4*8+m.nFilled*cell+1+7*8)
	buf = binary.AppendUvarint(buf, codecVersion)
	for _, f := range []float64{m.win.V1Min, m.win.V1Max, m.win.V2Min, m.win.V2Max} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.AppendUvarint(buf, uint64(m.win.Cols))
	buf = binary.AppendUvarint(buf, uint64(m.win.Rows))
	buf = binary.AppendUvarint(buf, uint64(m.samples))
	buf = binary.AppendUvarint(buf, uint64(m.nFilled))
	for i, ok := range m.filled {
		if !ok {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(i))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.vals[i]))
	}
	if m.fit == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	for _, f := range []float64{
		m.fit.Model.A.X, m.fit.Model.A.Y,
		m.fit.Model.K.X, m.fit.Model.K.Y,
		m.fit.Model.B.X, m.fit.Model.B.Y,
		m.fit.RMS,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// Decode is the inverse of Encode. It rejects malformed input with
// ErrModelFormat and never panics; every accepted blob yields a model whose
// re-encoding is stable.
func Decode(b []byte) (*Model, error) {
	d := &decoder{b: b}
	if v := d.uvarint("version"); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrModelFormat, v, codecVersion)
	}
	var win csd.Window
	win.V1Min = d.float("v1min")
	win.V1Max = d.float("v1max")
	win.V2Min = d.float("v2min")
	win.V2Max = d.float("v2max")
	win.Cols = int(d.uvarintMax("cols", maxModelDim))
	win.Rows = int(d.uvarintMax("rows", maxModelDim))
	if d.err != nil {
		return nil, d.err
	}
	if err := win.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrModelFormat, err)
	}
	if !isFinite(win.V1Min, win.V1Max, win.V2Min, win.V2Max) {
		return nil, fmt.Errorf("%w: non-finite window", ErrModelFormat)
	}
	cells := win.Cols * win.Rows
	if cells > maxModelCells {
		return nil, fmt.Errorf("%w: %d cells exceeds limit", ErrModelFormat, cells)
	}
	m := New(win)
	m.samples = int64(d.uvarintMax("samples", math.MaxInt64))
	nFilled := int(d.uvarintMax("filled", uint64(cells)))
	if d.err != nil {
		return nil, d.err
	}
	prev := -1
	for i := 0; i < nFilled; i++ {
		idx := int(d.uvarintMax("cell index", uint64(cells-1)))
		val := d.float("cell value")
		if d.err != nil {
			return nil, d.err
		}
		if idx <= prev {
			return nil, fmt.Errorf("%w: cell indices not ascending", ErrModelFormat)
		}
		if !isFinite(val) {
			return nil, fmt.Errorf("%w: non-finite cell value", ErrModelFormat)
		}
		prev = idx
		m.vals[idx] = val
		m.filled[idx] = true
	}
	m.nFilled = nFilled
	switch flag := d.byte("fit flag"); {
	case d.err != nil:
		return nil, d.err
	case flag == 0:
	case flag == 1:
		var f Fit
		f.Model.A.X = d.float("fit ax")
		f.Model.A.Y = d.float("fit ay")
		f.Model.K.X = d.float("fit kx")
		f.Model.K.Y = d.float("fit ky")
		f.Model.B.X = d.float("fit bx")
		f.Model.B.Y = d.float("fit by")
		f.RMS = d.float("fit rms")
		if d.err != nil {
			return nil, d.err
		}
		if !isFinite(f.Model.A.X, f.Model.A.Y, f.Model.K.X, f.Model.K.Y, f.Model.B.X, f.Model.B.Y, f.RMS) {
			return nil, fmt.Errorf("%w: non-finite fit", ErrModelFormat)
		}
		m.setFit(&f)
	default:
		return nil, fmt.Errorf("%w: fit flag %d", ErrModelFormat, flag)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrModelFormat, len(d.b))
	}
	return m, nil
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("%w: truncated %s", ErrModelFormat, what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) uvarintMax(what string, max uint64) uint64 {
	v := d.uvarint(what)
	if d.err == nil && v > max {
		d.err = fmt.Errorf("%w: %s %d exceeds %d", ErrModelFormat, what, v, max)
	}
	return v
}

func (d *decoder) float(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = fmt.Errorf("%w: truncated %s", ErrModelFormat, what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.err = fmt.Errorf("%w: truncated %s", ErrModelFormat, what)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func isFinite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
