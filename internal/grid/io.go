package grid

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// WritePGM writes the grid as a 16-bit binary PGM (P5), normalised to the
// full dynamic range. The top image row is the highest y.
func (g *Grid) WritePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n65535\n", g.W, g.H); err != nil {
		return err
	}
	n := g.Normalized()
	buf := make([]byte, 2*g.W)
	for y := g.H - 1; y >= 0; y-- {
		for x := 0; x < g.W; x++ {
			v := uint16(math.Round(n.At(x, y) * 65535))
			buf[2*x] = byte(v >> 8)
			buf[2*x+1] = byte(v)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPGM reads a 16-bit or 8-bit binary PGM written by WritePGM (values are
// mapped to [0, 1]).
func ReadPGM(r io.Reader) (*Grid, error) {
	br := bufio.NewReader(r)
	var magic string
	var w, h, maxVal int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxVal); err != nil {
		return nil, fmt.Errorf("grid: bad PGM header: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("grid: unsupported PGM magic %q", magic)
	}
	if w <= 0 || h <= 0 || maxVal <= 0 || maxVal > 65535 {
		return nil, fmt.Errorf("grid: bad PGM dimensions %dx%d max %d", w, h, maxVal)
	}
	if _, err := br.ReadByte(); err != nil { // single whitespace after header
		return nil, err
	}
	bytesPer := 1
	if maxVal > 255 {
		bytesPer = 2
	}
	if h > math.MaxInt/bytesPer/w {
		return nil, fmt.Errorf("grid: PGM dimensions %dx%d too large", w, h)
	}
	// Read the pixels before sizing the grid, so that a header claiming
	// more pixels than the input holds costs memory only for what it holds.
	n := bytesPer * w * h
	pix, err := io.ReadAll(io.LimitReader(br, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("grid: PGM data: %w", err)
	}
	if len(pix) < n {
		return nil, fmt.Errorf("grid: short PGM data: %d of %d bytes", len(pix), n)
	}
	g := New(w, h)
	for y := h - 1; y >= 0; y-- {
		row := pix[(h-1-y)*bytesPer*w:]
		for x := 0; x < w; x++ {
			var v int
			if bytesPer == 2 {
				v = int(row[2*x])<<8 | int(row[2*x+1])
			} else {
				v = int(row[x])
			}
			g.Set(x, y, float64(v)/float64(maxVal))
		}
	}
	return g, nil
}

// ToGrayImage converts the grid to an 8-bit grayscale image (top row = max y).
func (g *Grid) ToGrayImage() *image.Gray {
	n := g.Normalized()
	img := image.NewGray(image.Rect(0, 0, g.W, g.H))
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			img.SetGray(x, g.H-1-y, color.Gray{Y: uint8(math.Round(n.At(x, y) * 255))})
		}
	}
	return img
}

// WritePNG writes the grid as a grayscale PNG.
func (g *Grid) WritePNG(w io.Writer) error {
	return png.Encode(w, g.ToGrayImage())
}

// WritePNGFile writes the grid as a grayscale PNG to the named file.
func (g *Grid) WritePNGFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.WritePNG(f); err != nil {
		return err
	}
	return f.Close()
}

// Overlay is a set of marked pixels drawn over a grid rendering, used for
// probe maps and transition-point figures.
type Overlay struct {
	Points  []Point
	R, G, B uint8
}

// WritePNGWithOverlays renders the grid in grayscale and draws each overlay's
// points in its colour.
func (g *Grid) WritePNGWithOverlays(w io.Writer, overlays ...Overlay) error {
	base := g.ToGrayImage()
	img := image.NewRGBA(base.Bounds())
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			v := base.GrayAt(x, y).Y
			img.Set(x, y, color.RGBA{v, v, v, 255})
		}
	}
	for _, ov := range overlays {
		for _, p := range ov.Points {
			if p.X >= 0 && p.X < g.W && p.Y >= 0 && p.Y < g.H {
				img.Set(p.X, g.H-1-p.Y, color.RGBA{ov.R, ov.G, ov.B, 255})
			}
		}
	}
	return png.Encode(w, img)
}

// WriteCSV writes the grid as comma-separated rows, top row first.
func (g *Grid) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rec := make([]string, g.W)
	for y := g.H - 1; y >= 0; y-- {
		for x := 0; x < g.W; x++ {
			rec[x] = strconv.FormatFloat(g.At(x, y), 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a grid written by WriteCSV.
func ReadCSV(r io.Reader) (*Grid, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 || len(recs[0]) == 0 {
		return nil, fmt.Errorf("grid: empty CSV")
	}
	h, w := len(recs), len(recs[0])
	g := New(w, h)
	for i, rec := range recs {
		if len(rec) != w {
			return nil, fmt.Errorf("grid: ragged CSV row %d", i)
		}
		y := h - 1 - i
		for x, s := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return nil, fmt.Errorf("grid: CSV cell (%d,%d): %w", i, x, err)
			}
			g.Set(x, y, v)
		}
	}
	return g, nil
}

// asciiRamp orders glyphs from dark to bright.
const asciiRamp = " .:-=+*#%@"

// ASCII renders the grid as terminal art, one glyph per cell, optionally
// downsampling to at most maxCols columns (0 means no limit). The top line is
// the highest y, matching the PNG orientation.
func (g *Grid) ASCII(maxCols int) string {
	step := 1
	if maxCols > 0 && g.W > maxCols {
		step = (g.W + maxCols - 1) / maxCols
	}
	n := g.Normalized()
	var b strings.Builder
	for y := g.H - 1; y >= 0; y -= step {
		for x := 0; x < g.W; x += step {
			idx := int(n.At(x, y) * float64(len(asciiRamp)-1))
			b.WriteByte(asciiRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
