package imagecodec

import (
	"bytes"
	"testing"
)

// Equivalence tests pinning the arena-backed column encoder to the
// pre-optimization implementation (verbatim reference copy below, which
// allocated one Data slice per cell and one literal buffer per literal
// stretch). The token stream logic is unchanged, so every cell must
// match field for field and byte for byte.

// --- verbatim pre-optimization reference implementation ---

func refAppendColumnCells(cells []Cell, r *Raster, x, maxData int) []Cell {
	y := 0
	for y < r.H {
		cell := Cell{Col: uint16(x), Y0: uint16(y)}
		data := make([]byte, 0, maxData)
		count := 0
		for y < r.H {
			c := r.At(x, y)
			run := 1
			for y+run < r.H && run < 255 && r.At(x, y+run) == c {
				run++
			}
			if run >= 3 {
				if len(data)+5 > maxData {
					break
				}
				data = append(data, tokRun, byte(run), c.R, c.G, c.B)
				y += run
				count += run
				continue
			}
			lit := make([]byte, 0, 3*16)
			ly := y
			for ly < r.H && len(lit) < 255*3 {
				cc := r.At(x, ly)
				if ly+2 < r.H && r.At(x, ly+1) == cc && r.At(x, ly+2) == cc {
					break
				}
				lit = append(lit, cc.R, cc.G, cc.B)
				ly++
			}
			if len(lit) == 0 {
				continue
			}
			avail := maxData - len(data) - 2
			if avail < 3 {
				break
			}
			maxPix := avail / 3
			if maxPix > len(lit)/3 {
				maxPix = len(lit) / 3
			}
			data = append(data, tokLiteral, byte(maxPix))
			data = append(data, lit[:maxPix*3]...)
			y += maxPix
			count += maxPix
			if maxPix < len(lit)/3 {
				break
			}
		}
		cell.N = uint16(count)
		cell.Data = data
		if count > 0 {
			cells = append(cells, cell)
		} else {
			break
		}
	}
	return cells
}

func refEncodeColumns(r *Raster, maxCellBytes int) []Cell {
	maxData := maxCellBytes - CellHeaderSize
	var cells []Cell
	for x := 0; x < r.W; x++ {
		cells = refAppendColumnCells(cells, r, x, maxData)
	}
	return cells
}

// --- equivalence trials ---

func TestEncodeColumnsMatchesReference(t *testing.T) {
	for name, src := range equivRasters() {
		for _, maxCell := range []int{16, 85, 300} {
			want := refEncodeColumns(src, maxCell)
			for _, row := range poolRows {
				undo := row.pin()
				got, err := EncodeColumnsWorkers(src, maxCell, row.workers)
				undo()
				if err != nil {
					t.Fatalf("%s max=%d pool=%+v: %v", name, maxCell, row, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s max=%d pool=%+v: %d cells vs %d", name, maxCell, row, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.Col != w.Col || g.Y0 != w.Y0 || g.N != w.N || !bytes.Equal(g.Data, w.Data) {
						t.Fatalf("%s max=%d pool=%+v: cell %d differs", name, maxCell, row, i)
					}
				}
			}
		}
	}
}

// TestEncodeColumnsArenaIsolation re-checks every cell against the
// reference AFTER all columns are encoded — if a later cell's arena
// window overlapped an earlier cell's Data, the earlier bytes would
// have been clobbered by the time we compare.
func TestEncodeColumnsArenaIsolation(t *testing.T) {
	src := testPage(200, 300, 13)
	got, err := EncodeColumns(src, 85)
	if err != nil {
		t.Fatal(err)
	}
	want := refEncodeColumns(src, 85)
	if len(got) != len(want) {
		t.Fatalf("%d cells vs %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("cell %d data corrupted after full encode", i)
		}
	}
	// Marshaled payloads must round-trip through the shared-buffer path.
	var buf []byte
	for i := range got {
		buf = got[i].AppendMarshal(buf)
	}
	off := 0
	for i := range got {
		n := CellHeaderSize + len(got[i].Data)
		c, err := UnmarshalCell(buf[off : off+n])
		if err != nil {
			t.Fatal(err)
		}
		if c.Col != got[i].Col || c.Y0 != got[i].Y0 || c.N != got[i].N || !bytes.Equal(c.Data, got[i].Data) {
			t.Fatalf("cell %d marshal round trip differs", i)
		}
		off += n
	}
}

func TestEncodeColumnsAllocs(t *testing.T) {
	src := testPage(PageWidth, 400, 5)
	if _, err := EncodeColumns(src, 85); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := EncodeColumns(src, 85); err != nil {
			t.Fatal(err)
		}
	})
	// Cell-slice growth plus one arena chunk per ~64 KiB of output; the
	// per-cell Data and per-stretch literal allocations (one per cell,
	// ~2.4k for a full page) are gone.
	if allocs > 64 {
		t.Errorf("EncodeColumns allocates %v objects per call, want <= 64", allocs)
	}
}

// --- decode-side and airtime-size pins ---

// TestDecodeColumnsMatchesEncodedRaster pins the decode side of the cell
// codec: the token stream is lossless, so decoding every cell
// must reproduce the source raster pixel for pixel with nothing left in
// the missing mask.
func TestDecodeColumnsMatchesEncodedRaster(t *testing.T) {
	for name, src := range equivRasters() {
		cells, err := EncodeColumns(src, 85)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, missing := DecodeColumns(cells, src.W, src.H)
		for i, m := range missing {
			if m {
				t.Fatalf("%s: pixel %d still missing after full decode", name, i)
			}
		}
		for y := 0; y < src.H; y++ {
			for x := 0; x < src.W; x++ {
				if got.At(x, y) != src.At(x, y) {
					t.Fatalf("%s: pixel (%d,%d) = %v, want %v", name, x, y, got.At(x, y), src.At(x, y))
				}
			}
		}
	}
}

// TestCellsSizeMatchesMarshaledBytes pins the airtime accounting:
// CellsSize must equal the bytes the cells actually marshal to, because
// the scheduler budgets broadcast airtime from it.
func TestCellsSizeMatchesMarshaledBytes(t *testing.T) {
	for name, src := range equivRasters() {
		cells, err := EncodeColumns(src, 85)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := 0
		for i := range cells {
			total += len(cells[i].Marshal())
		}
		if got := CellsSize(cells); got != total {
			t.Fatalf("%s: CellsSize = %d, marshaled bytes = %d", name, got, total)
		}
	}
}
