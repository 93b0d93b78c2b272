// Package frame implements SONIC's link-layer framing (§3.3): content is
// divided into fixed 100-byte frames, each carrying a page id, a sequence
// number used to reassemble the image at the receiver, a payload, and a
// CRC32 checksum. Each frame is then protected by the outer Reed-Solomon
// code (rs8) and the inner convolutional code (v29) before hitting the
// modem, so the on-air unit is a fixed-size coded frame and a receiver
// can resynchronize on every frame boundary.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sonic/internal/fec"
	"sonic/internal/parallel"
)

// Wire geometry. A frame is exactly FrameSize bytes before FEC:
//
//	pageID(2) seq(4) total(4) payloadLen(1) payload(85) crc32(4) = 100
const (
	FrameSize   = 100
	PayloadSize = 85
	headerSize  = 11 // pageID + seq + total + payloadLen
)

// Frame is one SONIC link-layer frame.
type Frame struct {
	PageID  uint16
	Seq     uint32
	Total   uint32 // frames in this page's transmission
	Payload []byte // <= PayloadSize bytes
}

// Errors surfaced by the codec.
var (
	ErrPayloadTooBig = errors.New("frame: payload exceeds 85 bytes")
	ErrBadCRC        = errors.New("frame: CRC32 mismatch")
	ErrBadLength     = errors.New("frame: wrong frame length")
)

// Marshal serializes the frame into its fixed 100-byte wire form.
func (f *Frame) Marshal() ([]byte, error) {
	if len(f.Payload) > PayloadSize {
		return nil, ErrPayloadTooBig
	}
	out := make([]byte, FrameSize)
	binary.BigEndian.PutUint16(out[0:2], f.PageID)
	binary.BigEndian.PutUint32(out[2:6], f.Seq)
	binary.BigEndian.PutUint32(out[6:10], f.Total)
	out[10] = byte(len(f.Payload))
	copy(out[headerSize:], f.Payload)
	crc := fec.Checksum32(out[:FrameSize-4])
	binary.BigEndian.PutUint32(out[FrameSize-4:], crc)
	return out, nil
}

// Unmarshal parses and validates a 100-byte frame.
func Unmarshal(b []byte) (*Frame, error) {
	if len(b) != FrameSize {
		return nil, ErrBadLength
	}
	crc := binary.BigEndian.Uint32(b[FrameSize-4:])
	if !fec.Verify32(b[:FrameSize-4], crc) {
		return nil, ErrBadCRC
	}
	plen := int(b[10])
	if plen > PayloadSize {
		return nil, fmt.Errorf("frame: invalid payload length %d", plen)
	}
	f := &Frame{
		PageID:  binary.BigEndian.Uint16(b[0:2]),
		Seq:     binary.BigEndian.Uint32(b[2:6]),
		Total:   binary.BigEndian.Uint32(b[6:10]),
		Payload: append([]byte(nil), b[headerSize:headerSize+plen]...),
	}
	return f, nil
}

// Codec applies the paper's FEC stack to frames: outer rs8 then inner
// v29, producing fixed-size coded frames the modem broadcasts.
type Codec struct {
	rs   *fec.RS
	conv *fec.ConvCode
	// codedLen is the on-air bytes per frame.
	codedLen  int
	codedBits int
	rsLen     int

	wsPool sync.Pool // *fec.Workspace, one per decoding goroutine
}

// getWorkspace draws an inner-code decoder workspace (nil without an
// inner code).
func (c *Codec) getWorkspace() *fec.Workspace {
	if c.conv == nil {
		return nil
	}
	if ws, ok := c.wsPool.Get().(*fec.Workspace); ok {
		return ws
	}
	return c.conv.NewWorkspace()
}

func (c *Codec) putWorkspace(ws *fec.Workspace) {
	if ws != nil {
		c.wsPool.Put(ws)
	}
}

// NewCodec builds the default paper stack (rs8 + v29).
func NewCodec() *Codec {
	return NewCodecWith(fec.NewRS8(), fec.NewV29())
}

// NewCodecWith builds a codec with explicit component codes, enabling the
// ablation benches (v27 vs v29, RS on/off). Either code may be nil to
// disable that stage.
func NewCodecWith(rs *fec.RS, conv *fec.ConvCode) *Codec {
	c := &Codec{rs: rs, conv: conv}
	c.rsLen = FrameSize
	if rs != nil {
		c.rsLen = rs.EncodedLen(FrameSize)
	}
	if conv != nil {
		c.codedBits = conv.EncodedBits(c.rsLen)
		c.codedLen = (c.codedBits + 7) / 8
	} else {
		c.codedBits = c.rsLen * 8
		c.codedLen = c.rsLen
	}
	return c
}

// CodedFrameSize returns the on-air bytes per frame after FEC.
func (c *Codec) CodedFrameSize() int { return c.codedLen }

// EncodeFrame converts a frame to its on-air coded form.
func (c *Codec) EncodeFrame(f *Frame) ([]byte, error) {
	plain, err := f.Marshal()
	if err != nil {
		return nil, err
	}
	buf := plain
	if c.rs != nil {
		buf = c.rs.Encode(buf)
	}
	if c.conv != nil {
		coded, bits := c.conv.Encode(buf)
		if bits != c.codedBits {
			return nil, fmt.Errorf("frame: coded %d bits, expected %d", bits, c.codedBits)
		}
		buf = coded
	}
	if len(buf) != c.codedLen {
		return nil, fmt.Errorf("frame: coded frame %d bytes, expected %d", len(buf), c.codedLen)
	}
	return buf, nil
}

// errNoInnerCode is decodeFrameSoft's error on a codec without an inner
// code.
var errNoInnerCode = errors.New("frame: soft decisions need an inner code")

// decodeFrame reverses EncodeFrame on the caller's inner-code workspace,
// correcting channel errors where the FEC stack allows. A non-nil error
// means the frame is lost.
func (c *Codec) decodeFrame(ws *fec.Workspace, coded []byte) (*Frame, error) {
	if len(coded) != c.codedLen {
		return nil, ErrBadLength
	}
	if c.conv == nil {
		return c.decodeTail(coded, 0, nil)
	}
	return c.decodeTail(ws.Decode(coded, c.codedBits))
}

// decodeFrameSoft is decodeFrame on per-bit soft metrics (positive =
// bit 1), len(soft) == CodedFrameSize()*8. The inner code decodes with
// soft-decision Viterbi; the outer RS stage and CRC remain hard. Soft
// decisions only help the inner code, so a codec without one refuses
// them.
func (c *Codec) decodeFrameSoft(ws *fec.Workspace, soft []float64) (*Frame, error) {
	if len(soft) != c.codedLen*8 {
		return nil, ErrBadLength
	}
	if c.conv == nil {
		return nil, errNoInnerCode
	}
	return c.decodeTail(ws.DecodeSoft(soft[:c.codedBits]))
}

// decodeTail is the per-frame receive path after the inner decoder, the
// same for hard and soft input: it takes the inner decode as the
// workspace returned it (buf, path metric, err; the coded frame itself
// without an inner code), then runs the RS stage and the CRC.
func (c *Codec) decodeTail(buf []byte, _ int, err error) (*Frame, error) {
	if err != nil {
		return nil, err
	}
	if c.conv != nil {
		buf = buf[:c.rsLen]
	}
	if c.rs != nil {
		if buf, _, err = c.rs.Decode(buf); err != nil {
			return nil, err
		}
	}
	return Unmarshal(buf[:FrameSize])
}

// EncodeStream packs many frames into one contiguous coded byte stream
// (the payload of a single modem burst).
func (c *Codec) EncodeStream(frames []*Frame) ([]byte, error) {
	out := make([]byte, 0, len(frames)*c.codedLen)
	for _, f := range frames {
		cf, err := c.EncodeFrame(f)
		if err != nil {
			return nil, err
		}
		out = append(out, cf...)
	}
	return out, nil
}

// DecodeStream splits a coded stream back into frames. Frames that fail
// FEC or CRC are counted as lost and omitted. Trailing partial data is
// ignored (a truncated burst loses its tail frames).
func (c *Codec) DecodeStream(stream []byte) (frames []*Frame, lost int) {
	n := c.codedLen
	return c.decodeStream(len(stream)/n, func(ws *fec.Workspace, i int) (*Frame, error) {
		return c.decodeFrame(ws, stream[i*n:(i+1)*n])
	})
}

// DecodeStreamSoft is DecodeStream on a soft-metric stream, 8 metrics per
// coded byte, each frame decoded as decodeFrameSoft does.
func (c *Codec) DecodeStreamSoft(soft []float64) (frames []*Frame, lost int) {
	n := c.codedLen * 8
	return c.decodeStream(len(soft)/n, func(ws *fec.Workspace, i int) (*Frame, error) {
		return c.decodeFrameSoft(ws, soft[i*n:(i+1)*n])
	})
}

// decodeStream is the stream loop behind both input kinds: decode(ws, i)
// decodes frame i of n. Frames are independent, so they decode on up to
// GOMAXPROCS goroutines, each with its own inner-code workspace, into
// per-frame slots: the result is the serial loop's whatever the
// scheduling.
func (c *Codec) decodeStream(n int, decode func(ws *fec.Workspace, i int) (*Frame, error)) (frames []*Frame, lost int) {
	slots := make([]*Frame, n)
	parallel.For(runtime.GOMAXPROCS(0), n, decodeMinFrames, func(lo, hi int) {
		ws := c.getWorkspace()
		defer c.putWorkspace(ws)
		for i := lo; i < hi; i++ {
			// A nil slot is a lost frame.
			slots[i], _ = decode(ws, i)
		}
	})
	kept := slots[:0]
	for _, f := range slots {
		if f != nil {
			kept = append(kept, f)
		}
	}
	if len(kept) == 0 {
		return nil, n // as the serial append loop: nil, not empty
	}
	return kept, n - len(kept)
}

// decodeMinFrames is the fewest frames worth a goroutine of their own in
// DecodeStream: a clean frame decodes in ~10 µs, a goroutine costs a few.
const decodeMinFrames = 8

// Chunk splits a blob into frames for the given page id.
func Chunk(pageID uint16, blob []byte) []*Frame {
	total := (len(blob) + PayloadSize - 1) / PayloadSize
	if total == 0 {
		total = 1
	}
	frames := make([]*Frame, 0, total)
	for i := 0; i < total; i++ {
		lo := i * PayloadSize
		hi := lo + PayloadSize
		if hi > len(blob) {
			hi = len(blob)
		}
		frames = append(frames, &Frame{
			PageID:  pageID,
			Seq:     uint32(i),
			Total:   uint32(total),
			Payload: append([]byte(nil), blob[lo:hi]...),
		})
	}
	return frames
}

// Reassembler collects frames for one page and reports completeness.
type Reassembler struct {
	PageID   uint16
	total    uint32
	payloads map[uint32][]byte
}

// NewReassembler creates a reassembler for a page.
func NewReassembler(pageID uint16) *Reassembler {
	return &Reassembler{PageID: pageID, payloads: make(map[uint32][]byte)}
}

// Add ingests a frame; duplicates and frames for other pages are ignored.
// It reports whether the frame was accepted.
func (r *Reassembler) Add(f *Frame) bool {
	if f.PageID != r.PageID {
		return false
	}
	if r.total == 0 {
		r.total = f.Total
	}
	if f.Total != r.total || f.Seq >= r.total {
		return false
	}
	if _, dup := r.payloads[f.Seq]; dup {
		return false
	}
	r.payloads[f.Seq] = f.Payload
	return true
}

// Total returns the expected frame count (0 until the first frame).
func (r *Reassembler) Total() int { return int(r.total) }

// Received returns how many distinct frames arrived.
func (r *Reassembler) Received() int { return len(r.payloads) }

// Complete reports whether every frame arrived.
func (r *Reassembler) Complete() bool {
	return r.total > 0 && len(r.payloads) == int(r.total)
}

// LossRate returns the fraction of frames still missing (0 when total is
// unknown).
func (r *Reassembler) LossRate() float64 {
	if r.total == 0 {
		return 0
	}
	return 1 - float64(len(r.payloads))/float64(r.total)
}

// Bytes concatenates the received payloads in sequence order. ok is false
// if any frame is missing.
func (r *Reassembler) Bytes() (blob []byte, ok bool) {
	if !r.Complete() {
		return nil, false
	}
	blob = make([]byte, 0, int(r.total)*PayloadSize)
	for s := uint32(0); s < r.total; s++ {
		blob = append(blob, r.payloads[s]...)
	}
	return blob, true
}
