package grid

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func ramp(w, h int) *Grid {
	g := New(w, h)
	g.Apply(func(x, y int, _ float64) float64 { return float64(x + y*w) })
	return g
}

func TestNewZeroFilled(t *testing.T) {
	g := New(4, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			if g.At(x, y) != 0 {
				t.Fatalf("New grid not zero at (%d,%d)", x, y)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	g := New(5, 7)
	g.Set(3, 6, 42.5)
	if got := g.At(3, 6); got != 42.5 {
		t.Errorf("At = %v, want 42.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestAtClamped(t *testing.T) {
	g := ramp(3, 3)
	if got := g.AtClamped(-5, 1); got != g.At(0, 1) {
		t.Errorf("clamp left = %v", got)
	}
	if got := g.AtClamped(10, 10); got != g.At(2, 2) {
		t.Errorf("clamp corner = %v", got)
	}
}

func TestMinMaxMeanStd(t *testing.T) {
	g := FromData(2, 2, []float64{1, 2, 3, 4})
	lo, hi := g.MinMax()
	if lo != 1 || hi != 4 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
	if m := g.Mean(); m != 2.5 {
		t.Errorf("Mean = %v", m)
	}
	if s := g.Std(); math.Abs(s-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("Std = %v", s)
	}
}

func TestPercentile(t *testing.T) {
	g := FromData(5, 1, []float64{10, 20, 30, 40, 50})
	if p := g.Percentile(0); p != 10 {
		t.Errorf("P0 = %v", p)
	}
	if p := g.Percentile(100); p != 50 {
		t.Errorf("P100 = %v", p)
	}
	if p := g.Percentile(50); p != 30 {
		t.Errorf("P50 = %v", p)
	}
	if p := g.Percentile(25); p != 20 {
		t.Errorf("P25 = %v", p)
	}
}

func TestNormalized(t *testing.T) {
	g := FromData(2, 1, []float64{-3, 5})
	n := g.Normalized()
	if n.At(0, 0) != 0 || n.At(1, 0) != 1 {
		t.Errorf("Normalized = %v, %v", n.At(0, 0), n.At(1, 0))
	}
	flat := New(3, 3)
	flat.Fill(7)
	fn := flat.Normalized()
	if lo, hi := fn.MinMax(); lo != 0 || hi != 0 {
		t.Errorf("constant grid normalised to [%v, %v], want zeros", lo, hi)
	}
}

func TestCrop(t *testing.T) {
	g := ramp(6, 5)
	c, err := g.Crop(2, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.W != 3 || c.H != 2 {
		t.Fatalf("crop size %dx%d", c.W, c.H)
	}
	if c.At(0, 0) != g.At(2, 1) || c.At(2, 1) != g.At(4, 2) {
		t.Error("crop content mismatch")
	}
	if _, err := g.Crop(5, 0, 3, 2); err == nil {
		t.Error("out-of-bounds crop accepted")
	}
}

func TestCropCenterFrac(t *testing.T) {
	g := ramp(100, 100)
	c, err := g.CropCenterFrac(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.W != 50 || c.H != 50 {
		t.Fatalf("center crop size %dx%d, want 50x50", c.W, c.H)
	}
	if c.At(0, 0) != g.At(25, 25) {
		t.Error("center crop misaligned")
	}
	if _, err := g.CropCenterFrac(0); err == nil {
		t.Error("frac 0 accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := ramp(3, 3)
	c := g.Clone()
	c.Set(0, 0, -99)
	if g.At(0, 0) == -99 {
		t.Error("Clone shares storage")
	}
	if !g.Equal(g.Clone()) {
		t.Error("clone not Equal to original")
	}
}

func TestBilinearAt(t *testing.T) {
	g := FromData(2, 2, []float64{0, 1, 2, 3})
	if v := g.BilinearAt(0.5, 0.5); math.Abs(v-1.5) > 1e-12 {
		t.Errorf("center bilinear = %v, want 1.5", v)
	}
	if v := g.BilinearAt(0, 0); v != 0 {
		t.Errorf("corner bilinear = %v, want 0", v)
	}
	if v := g.BilinearAt(-3, -3); v != 0 {
		t.Errorf("clamped bilinear = %v, want 0", v)
	}
}

func TestPGMRoundTrip(t *testing.T) {
	g := ramp(17, 9)
	var buf bytes.Buffer
	if err := g.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.W != g.W || r.H != g.H {
		t.Fatalf("round trip size %dx%d", r.W, r.H)
	}
	// Values are normalised on write; compare against normalised original.
	n := g.Normalized()
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if math.Abs(r.At(x, y)-n.At(x, y)) > 1.0/65535+1e-9 {
				t.Fatalf("PGM value mismatch at (%d,%d): %v vs %v", x, y, r.At(x, y), n.At(x, y))
			}
		}
	}
}

// TestPGMRejectsGarbage: malformed input is an error, and a header
// claiming more pixels than the input holds costs no more than the input.
func TestPGMRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"P2\n2 2\n255\n", // ASCII PGM magic
		"nonsense",
		"P5 2147483648 2147483648 255\n", // 2^62 pixels, more than a slice holds
		"P5 30000 30000 255\n",           // 7.2 GB of grid, no pixel data
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadPGM(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("accepted %q", in)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%q: allocated %d bytes to reject it", in, n)
		}
	}
}

// FuzzReadPGM: ReadPGM returns an error or a grid, never a panic, and any
// grid it accepts survives a WritePGM → ReadPGM round trip.
func FuzzReadPGM(f *testing.F) {
	var seed bytes.Buffer
	if err := ramp(5, 3).WritePGM(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadPGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WritePGM(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := ReadPGM(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted %dx%d grid: %v", g.W, g.H, err)
		}
		if r.W != g.W || r.H != g.H {
			t.Fatalf("round trip size %dx%d, want %dx%d", r.W, r.H, g.W, g.H)
		}
		n := g.Normalized()
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if math.Abs(r.At(x, y)-n.At(x, y)) > 1.0/65535+1e-9 {
					t.Fatalf("round trip value at (%d,%d): %v, want %v", x, y, r.At(x, y), n.At(x, y))
				}
			}
		}
	})
}

func TestCSVRoundTrip(t *testing.T) {
	g := ramp(7, 4)
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(r) {
		t.Error("CSV round trip lost data")
	}
}

func TestPNGWrites(t *testing.T) {
	g := ramp(10, 10)
	var buf bytes.Buffer
	if err := g.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty PNG output")
	}
	var buf2 bytes.Buffer
	ov := Overlay{Points: []Point{{1, 1}, {2, 2}}, R: 255}
	if err := g.WritePNGWithOverlays(&buf2, ov); err != nil {
		t.Fatal(err)
	}
	if buf2.Len() == 0 {
		t.Error("empty overlay PNG output")
	}
}

func TestASCII(t *testing.T) {
	g := ramp(4, 3)
	s := g.ASCII(0)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("ASCII has %d lines, want 3", len(lines))
	}
	if len(lines[0]) != 4 {
		t.Fatalf("ASCII line width %d, want 4", len(lines[0]))
	}
	// Brightest cell is at top-right (highest value in the ramp).
	if lines[0][3] != '@' {
		t.Errorf("brightest glyph = %q, want '@'", lines[0][3])
	}
	small := ramp(100, 100).ASCII(20)
	first := strings.SplitN(small, "\n", 2)[0]
	if len(first) > 20 {
		t.Errorf("downsampled ASCII width %d > 20", len(first))
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := ramp(3, 3)
	b := ramp(3, 3)
	if !a.Equal(b) {
		t.Error("identical grids not Equal")
	}
	b.Set(1, 1, -1)
	if a.Equal(b) {
		t.Error("different grids Equal")
	}
	if a.Equal(New(3, 4)) {
		t.Error("different sizes Equal")
	}
}

func TestApply(t *testing.T) {
	g := New(3, 2)
	g.Apply(func(x, y int, _ float64) float64 { return float64(x * y) })
	if g.At(2, 1) != 2 {
		t.Errorf("Apply result = %v", g.At(2, 1))
	}
}

func TestNormalizedProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		g := FromData(len(vals), 1, append([]float64(nil), vals...))
		n := g.Normalized()
		lo, hi := n.MinMax()
		return lo >= -1e-12 && hi <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinePoints(t *testing.T) {
	pts := LinePoints(Point{0, 0}, Point{4, 2})
	if pts[0] != (Point{0, 0}) || pts[len(pts)-1] != (Point{4, 2}) {
		t.Fatalf("endpoints wrong: %v", pts)
	}
	// 8-connected: consecutive points differ by at most 1 in each axis.
	for i := 1; i < len(pts); i++ {
		if absInt(pts[i].X-pts[i-1].X) > 1 || absInt(pts[i].Y-pts[i-1].Y) > 1 {
			t.Fatalf("gap between %v and %v", pts[i-1], pts[i])
		}
	}
	// Degenerate segment.
	if got := LinePoints(Point{3, 3}, Point{3, 3}); len(got) != 1 {
		t.Fatalf("degenerate segment = %v", got)
	}
	// Steep downward segment.
	down := LinePoints(Point{2, 10}, Point{0, 0})
	if down[0] != (Point{2, 10}) || down[len(down)-1] != (Point{0, 0}) {
		t.Fatalf("downward endpoints wrong: %v", down)
	}
}
