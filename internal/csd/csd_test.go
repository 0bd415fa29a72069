package csd

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/fastvg/fastvg/internal/grid"
)

func TestWindowValidate(t *testing.T) {
	w := NewSquareWindow(0, 0, 100, 64)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := w
	bad.Cols = 1
	if err := bad.Validate(); err == nil {
		t.Error("accepted 1-column window")
	}
	bad = w
	bad.V1Max = bad.V1Min
	if err := bad.Validate(); err == nil {
		t.Error("accepted degenerate voltage range")
	}
}

func TestPixelCenters(t *testing.T) {
	w := NewSquareWindow(100, 200, 50, 100) // δ = 0.5 mV
	if s := w.StepV1(); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("StepV1 = %v", s)
	}
	if v := w.V1At(0); math.Abs(v-100.25) > 1e-12 {
		t.Errorf("V1At(0) = %v, want 100.25", v)
	}
	if v := w.V2At(99); math.Abs(v-249.75) > 1e-12 {
		t.Errorf("V2At(99) = %v, want 249.75", v)
	}
}

func TestPixelVoltageRoundTrip(t *testing.T) {
	w := NewSquareWindow(-50, 30, 120, 63)
	f := func(xRaw, yRaw int) bool {
		x := abs(xRaw) % w.Cols
		y := abs(yRaw) % w.Rows
		return w.XOf(w.V1At(x)) == x && w.YOf(w.V2At(y)) == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestXOfClamps(t *testing.T) {
	w := NewSquareWindow(0, 0, 100, 10)
	if x := w.XOf(-50); x != 0 {
		t.Errorf("XOf below range = %d", x)
	}
	if x := w.XOf(500); x != 9 {
		t.Errorf("XOf above range = %d", x)
	}
	if y := w.YOf(1e9); y != 9 {
		t.Errorf("YOf above range = %d", y)
	}
}

func TestSlopeConversionRoundTrip(t *testing.T) {
	w := Window{V1Min: 0, V1Max: 100, V2Min: 0, V2Max: 50, Cols: 200, Rows: 50}
	m := -3.7
	if got := w.VoltageSlopeToPixel(w.PixelSlopeToVoltage(m)); math.Abs(got-m) > 1e-12 {
		t.Errorf("slope round trip = %v, want %v", got, m)
	}
	// With anisotropic pixels the conversion must actually rescale.
	if got := w.PixelSlopeToVoltage(1); math.Abs(got-2) > 1e-12 {
		t.Errorf("anisotropic conversion = %v, want 2", got)
	}
}

type funcGetter func(v1, v2 float64) float64

func (f funcGetter) GetCurrent(v1, v2 float64) float64 { return f(v1, v2) }

func TestAcquireRastersEveryPixel(t *testing.T) {
	w := NewSquareWindow(0, 0, 10, 8)
	calls := 0
	g, err := Acquire(funcGetter(func(v1, v2 float64) float64 {
		calls++
		return v1 + 1000*v2
	}), w)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 64 {
		t.Errorf("acquire made %d calls, want 64", calls)
	}
	if g.W != 8 || g.H != 8 {
		t.Fatalf("acquired grid %dx%d", g.W, g.H)
	}
	// Spot-check the voltage mapping baked into the values.
	want := w.V1At(3) + 1000*w.V2At(5)
	if got := g.At(3, 5); math.Abs(got-want) > 1e-9 {
		t.Errorf("g.At(3,5) = %v, want %v", got, want)
	}
}

func TestAcquireRejectsBadWindow(t *testing.T) {
	if _, err := Acquire(funcGetter(func(_, _ float64) float64 { return 0 }), Window{}); err == nil {
		t.Error("Acquire accepted invalid window")
	}
}

func TestPixelSource(t *testing.T) {
	w := NewSquareWindow(0, 0, 10, 10)
	src := PixelSource{
		Src: funcGetter(func(v1, v2 float64) float64 { return v1*100 + v2 }),
		Win: w,
	}
	want := w.V1At(4)*100 + w.V2At(7)
	if got := src.Current(4, 7); math.Abs(got-want) > 1e-9 {
		t.Errorf("PixelSource.Current = %v, want %v", got, want)
	}
}

func TestGridSourceClamps(t *testing.T) {
	g := grid.New(3, 3)
	g.Set(2, 2, 9)
	s := GridSource{G: g}
	if got := s.Current(10, 10); got != 9 {
		t.Errorf("clamped read = %v, want 9", got)
	}
}

// scalarSrc is a plain CurrentGetter; rowSrc adds the RowGetter fast path.
type scalarSrc struct{ calls int }

func (s *scalarSrc) GetCurrent(v1, v2 float64) float64 { s.calls++; return 1000*v1 + v2 }

type rowSrc struct {
	scalarSrc
	rowCalls int
}

func (s *rowSrc) CurrentRow(v2 float64, v1s, out []float64) {
	s.rowCalls++
	for i, v1 := range v1s {
		out[i] = 1000*v1 + v2
	}
}

func TestAcquireRoutesThroughRowGetter(t *testing.T) {
	w := NewSquareWindow(0, 0, 8, 8)
	scalar := &scalarSrc{}
	rowed := &rowSrc{}
	want, err := Acquire(scalar, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Acquire(rowed, w)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("row-routed acquisition differs from scalar")
	}
	if rowed.rowCalls != w.Rows {
		t.Fatalf("expected %d CurrentRow calls, got %d (scalar calls %d)",
			w.Rows, rowed.rowCalls, rowed.calls)
	}
	if rowed.calls != 0 {
		t.Fatalf("row-capable source still took %d scalar probes", rowed.calls)
	}
}

func TestPixelSourceRowMatchesCurrent(t *testing.T) {
	w := NewSquareWindow(0, 0, 8, 8)
	for _, src := range []CurrentGetter{&scalarSrc{}, &rowSrc{}} {
		ps := PixelSource{Src: src, Win: w}
		out := make([]float64, 5)
		for y := -1; y <= w.Rows; y++ { // one past the edge, like the sweeps
			ps.Row(y, -1, out)
			for i := range out {
				if want := ps.Current(-1+i, y); out[i] != want {
					t.Fatalf("%T row (%d,%d): %v != %v", src, -1+i, y, out[i], want)
				}
			}
		}
	}
	rowed := &rowSrc{}
	PixelSource{Src: rowed, Win: w}.Row(0, 0, make([]float64, 3))
	if rowed.rowCalls != 1 || rowed.calls != 0 {
		t.Fatalf("Row did not route through CurrentRow (row %d, scalar %d)", rowed.rowCalls, rowed.calls)
	}
}

// raceEnabled is set in race builds, where sync.Pool drops items at random
// and allocation counts differ.
var raceEnabled bool

// TestPixelSourceRowAllocs pins Row over a RowGetter to no allocation: the
// anchor search's mask sweeps call it once per 5- and 3-pixel segment.
func TestPixelSourceRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ps := PixelSource{Src: &rowSrc{}, Win: NewSquareWindow(0, 0, 50, 100)}
	seg5, seg3 := make([]float64, 5), make([]float64, 3)
	y := 0
	allocs := testing.AllocsPerRun(200, func() {
		y = (y + 1) % 100
		ps.Row(y, 10, seg5)
		ps.Row(y, 0, seg3)
	})
	if allocs != 0 {
		t.Fatalf("PixelSource.Row allocates %.1f objects per two rows, want 0", allocs)
	}
}
