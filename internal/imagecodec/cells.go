package imagecodec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sonic/internal/parallel"
)

// The paper's transmission scheme (§3.3) divides the rendered image
// vertically into partitions one pixel wide and packs each partition into
// fixed-size frames; a lost frame therefore damages only a bounded run of
// pixels in one column, which the receiver repairs with nearest-neighbor
// interpolation. Cell is that unit: an independently decodable,
// RLE-compressed run of pixels from a single column. One cell rides in
// one SONIC frame payload.
//
// Nothing that ships encodes cells (the system airs the SIC bitstream);
// this file is kept as the paper's mechanism, reached through
// core.EncodeImageCells and pinned by the tests of both packages.
type Cell struct {
	Col  uint16 // column index (0-based partition number)
	Y0   uint16 // first row covered
	N    uint16 // number of pixels covered
	Data []byte // RLE token stream
}

// CellHeaderSize is the marshaled header length.
const CellHeaderSize = 6

// RLE token types inside Cell.Data.
const (
	tokRun     = 0x00 // tokRun, count, r, g, b    -> count copies of (r,g,b)
	tokLiteral = 0x01 // tokLiteral, count, count*3 bytes
)

// Marshal serializes the cell.
func (c *Cell) Marshal() []byte {
	return c.AppendMarshal(make([]byte, 0, CellHeaderSize+len(c.Data)))
}

// AppendMarshal appends the serialized cell to dst and returns the
// extended slice, letting callers marshal many cells into one buffer.
func (c *Cell) AppendMarshal(dst []byte) []byte {
	var hdr [CellHeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], c.Col)
	binary.BigEndian.PutUint16(hdr[2:4], c.Y0)
	binary.BigEndian.PutUint16(hdr[4:6], c.N)
	dst = append(dst, hdr[:]...)
	return append(dst, c.Data...)
}

// UnmarshalCell parses a marshaled cell.
func UnmarshalCell(b []byte) (Cell, error) {
	if len(b) < CellHeaderSize {
		return Cell{}, errors.New("imagecodec: cell too short")
	}
	c := Cell{
		Col:  binary.BigEndian.Uint16(b[0:2]),
		Y0:   binary.BigEndian.Uint16(b[2:4]),
		N:    binary.BigEndian.Uint16(b[4:6]),
		Data: append([]byte(nil), b[CellHeaderSize:]...),
	}
	return c, nil
}

// EncodeColumns compresses the raster losslessly into cells whose
// marshaled size never exceeds maxCellBytes (header included).
// maxCellBytes must leave room for at least one literal pixel token.
func EncodeColumns(r *Raster, maxCellBytes int) ([]Cell, error) {
	return EncodeColumnsWorkers(r, maxCellBytes, 0)
}

// EncodeColumnsWorkers is EncodeColumns with an explicit worker count. Columns are independent, so each worker packs a contiguous
// range of columns into cells backed by its own arena; the ranges are
// joined in column order, giving the same cell list for any worker
// count. workers <= 0 selects GOMAXPROCS.
func EncodeColumnsWorkers(r *Raster, maxCellBytes, workers int) ([]Cell, error) {
	if r == nil || r.W < 1 || r.H < 1 {
		return nil, ErrEmptyRaster
	}
	if r.W > 0xFFFF || r.H > 0xFFFF {
		return nil, fmt.Errorf("imagecodec: raster %dx%d exceeds cell addressing", r.W, r.H)
	}
	maxData := maxCellBytes - CellHeaderSize
	if maxData < 6 {
		return nil, fmt.Errorf("imagecodec: maxCellBytes %d too small", maxCellBytes)
	}
	// Each range leaves its cells at the slot of its first column.
	parts := make([][]Cell, r.W)
	parallel.For(poolSize(workers), r.W, 1, func(lo, hi int) {
		var enc columnEncoder
		for x := lo; x < hi; x++ {
			parts[lo] = enc.appendColumnCells(parts[lo], r, x, maxData)
		}
	})
	total := 0
	for _, cs := range parts {
		total += len(cs)
	}
	cells := make([]Cell, 0, total)
	for _, cs := range parts {
		cells = append(cells, cs...)
	}
	return cells, nil
}

// columnEncoder holds the scratch one worker reuses across columns: an
// arena that backs every emitted cell's Data (one chunk allocation per
// ~64 KiB of output instead of one slice per cell) and the literal
// staging buffer (previously allocated per literal stretch).
type columnEncoder struct {
	arena []byte
	lit   [255 * 3]byte
}

// cellData reserves a capacity-capped window at the arena's tail for one
// cell's token stream. The three-index slice keeps later cells from
// growing into it.
func (e *columnEncoder) cellData(maxData int) []byte {
	if cap(e.arena)-len(e.arena) < maxData {
		chunk := 64 * 1024
		if chunk < maxData {
			chunk = maxData
		}
		e.arena = make([]byte, 0, chunk)
	}
	n := len(e.arena)
	return e.arena[n : n : n+maxData]
}

// appendColumnCells encodes column x into one or more cells.
func (e *columnEncoder) appendColumnCells(cells []Cell, r *Raster, x, maxData int) []Cell {
	y := 0
	for y < r.H {
		cell := Cell{Col: uint16(x), Y0: uint16(y)}
		data := e.cellData(maxData)
		count := 0
		for y < r.H {
			// Measure the run starting at y.
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
			// Literal stretch: gather pixels until a long run starts or
			// the cell fills.
			lit := e.lit[:0]
			ly := y
			for ly < r.H && len(lit) < 255*3 {
				cc := r.At(x, ly)
				// Stop literals when a 3+ run begins.
				if ly+2 < r.H && r.At(x, ly+1) == cc && r.At(x, ly+2) == cc {
					break
				}
				lit = append(lit, cc.R, cc.G, cc.B)
				ly++
			}
			if len(lit) == 0 { // next pixels form a run; loop around
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
			if maxPix < len(lit)/3 { // cell full mid-literal
				break
			}
		}
		cell.N = uint16(count)
		cell.Data = data
		// Commit the cell's window; the append checks above keep len(data)
		// within maxData, so data never escaped the arena.
		e.arena = e.arena[:len(e.arena)+len(data)]
		if count > 0 {
			cells = append(cells, cell)
		} else {
			// Defensive: no progress (cannot happen with maxData >= 6).
			break
		}
	}
	return cells
}

// DecodeColumns reconstructs a raster of the given dimensions from
// (possibly incomplete) cells. Missing pixels are left black and flagged
// in the returned mask (true = missing), which is what the interpolation
// stage consumes. Malformed cells are skipped — a corrupt frame must
// never poison neighbouring regions.
func DecodeColumns(cells []Cell, w, h int) (*Raster, []bool) {
	r := NewBlackRaster(w, h)
	missing := make([]bool, w*h)
	for i := range missing {
		missing[i] = true
	}
	for _, c := range cells {
		decodeCell(r, missing, c)
	}
	return r, missing
}

func decodeCell(r *Raster, missing []bool, c Cell) {
	x := int(c.Col)
	if x < 0 || x >= r.W {
		return
	}
	y := int(c.Y0)
	remaining := int(c.N)
	d := c.Data
	for remaining > 0 && len(d) >= 2 {
		switch d[0] {
		case tokRun:
			n := int(d[1])
			if len(d) < 5 || n == 0 {
				return
			}
			px := RGB{d[2], d[3], d[4]}
			for i := 0; i < n && remaining > 0; i++ {
				if y < r.H {
					r.Set(x, y, px)
					missing[y*r.W+x] = false
				}
				y++
				remaining--
			}
			d = d[5:]
		case tokLiteral:
			n := int(d[1])
			if n == 0 || len(d) < 2+3*n {
				return
			}
			for i := 0; i < n && remaining > 0; i++ {
				if y < r.H {
					r.Set(x, y, RGB{d[2+3*i], d[3+3*i], d[4+3*i]})
					missing[y*r.W+x] = false
				}
				y++
				remaining--
			}
			d = d[2+3*n:]
		default:
			return // corrupt token stream; abandon the cell
		}
	}
}

// CellsSize returns the total marshaled size of the cells — the number of
// payload bytes SONIC must broadcast for this image.
func CellsSize(cells []Cell) int {
	n := 0
	for _, c := range cells {
		n += CellHeaderSize + len(c.Data)
	}
	return n
}
