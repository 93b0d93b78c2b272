package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"sonic/internal/fec"
	"sonic/internal/fm"
	"sonic/internal/frame"
)

// TestCleanFrameShareMatchesViterbiReference pins the traffic the inner
// decoder's zero-syndrome fast path was sized on. Per link it sends 150
// probe frames and asks, frame by frame, (1) does the hard decode agree
// with a Viterbi-only decode in bytes and path metric, and (2) what share
// of frames arrive as codewords (path metric 0), i.e. skip the trellis.
//
// The Viterbi-only reference is the soft decoder fed the hard decisions
// as ±1: it never takes the fast path, and on ±1 inputs its correlation
// metric orders paths exactly as Hamming distance does (ties included).
// A decode's path metric is the Hamming distance between the frame's
// hard decisions and the encoding of the message it returned.
//
// The clean shares are the fast path's justification (ISSUE 16, DESIGN
// §3): if a change to internal/fm or internal/modem moves them, the case
// for the fast path moved with it and this table is where to say so.
func TestCleanFrameShareMatchesViterbiReference(t *testing.T) {
	const nFrames = 150
	p := newDefault(t)
	code := p.cfg.InnerCode
	cl := p.codec.CodedFrameSize()
	codedBits := code.EncodedBits(fec.NewRS8().EncodedLen(frame.FrameSize))
	hardWs, softWs := code.NewWorkspace(), code.NewWorkspace()

	fmAt := func(rssi float64) fm.Link {
		return &fm.FMLink{RSSI: rssi, Rng: rand.New(rand.NewSource(16))}
	}
	for _, row := range []struct {
		name               string
		link               fm.Link
		minClean, maxClean int // clean frames out of nFrames
	}{
		{"cable", fm.CableLink{}, nFrames, nFrames},
		{"fm -65 dB", fmAt(-65), nFrames, nFrames},
		{"fm -70 dB", fmAt(-70), nFrames, nFrames},
		{"fm -75 dB", fmAt(-75), nFrames, nFrames},
		{"fm -80 dB", fmAt(-80), 1, nFrames - 1}, // the edge: some of each
		{"fm -85 dB", fmAt(-85), 0, 0},           // every frame needs the trellis, none is lost
		{"fm -90 dB", fmAt(-90), 0, 0},
	} {
		rx, err := p.probeAudio(row.link, nFrames)
		if err != nil {
			t.Fatal(err)
		}
		clean := 0
		if dem, err := p.modem.Demodulate(rx); err == nil { // no sync: every frame lost, none clean
			soft := make([]float64, 8*len(dem.Payload))
			for i := range soft {
				soft[i] = float64(dem.Payload[i/8]>>uint(7-i%8)&1)*2 - 1
			}
			rx := fec.BytesToBits(dem.Payload)
			for i := 0; (i+1)*cl <= len(dem.Payload); i++ {
				got, err := hardWs.Decode(dem.Payload[i*cl:(i+1)*cl], codedBits)
				metric := pathMetric(code, rx[i*cl*8:i*cl*8+codedBits], got)
				want, wantErr := softWs.DecodeSoft(soft[i*cl*8 : i*cl*8+codedBits])
				wantMetric := pathMetric(code, rx[i*cl*8:i*cl*8+codedBits], want)
				if err != nil || wantErr != nil || metric != wantMetric || !bytes.Equal(got, want) {
					t.Fatalf("%s frame %d: inner decode (metric %d, err %v) differs from Viterbi-only (metric %d, err %v)",
						row.name, i, metric, err, wantMetric, wantErr)
				}
				if metric == 0 {
					clean++
				}
			}
			frames, lost := p.codec.DecodeStream(dem.Payload)
			wantFrames, wantLost := p.codec.DecodeStreamSoft(soft)
			if lost != wantLost || !reflect.DeepEqual(frames, wantFrames) {
				t.Errorf("%s: %d frames/%d lost, Viterbi-only decode %d/%d (or frames differ)",
					row.name, len(frames), lost, len(wantFrames), wantLost)
			}
			t.Logf("%-10s clean %3d/%d, lost %d", row.name, clean, nFrames, lost)
		} else {
			t.Logf("%-10s no sync: %v", row.name, err)
		}
		if clean < row.minClean || clean > row.maxClean {
			t.Errorf("%s: %d/%d frames clean, the fast path was sized on [%d, %d]",
				row.name, clean, nFrames, row.minClean, row.maxClean)
		}
	}
}

// pathMetric is the Hamming distance between the received coded bits rx
// (one per byte) and the encoding of the decoded message bytes msg.
func pathMetric(code *fec.ConvCode, rx, msg []byte) int {
	d := 0
	for i, b := range code.EncodeBits(fec.BytesToBits(msg)) {
		if b != rx[i] {
			d++
		}
	}
	return d
}
