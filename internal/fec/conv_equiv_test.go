package fec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// This file pins the optimized table-driven Viterbi (flat state arrays,
// bit-packed survivors, reused workspaces) to the straightforward
// pre-optimization formulation: same decoded bits, same path metric, on
// randomized noisy streams. refDecodeBitsMetric / refDecodeSoft below
// are verbatim copies of the original implementations.

func refDecodeBitsMetric(c *ConvCode, coded []byte) ([]byte, int, error) {
	if len(coded)%2 != 0 || len(coded) < 2*(c.k-1) {
		return nil, 0, ErrBadCodeLength
	}
	nSteps := len(coded) / 2
	msgLen := nSteps - (c.k - 1)
	if msgLen < 0 {
		return nil, 0, ErrBadCodeLength
	}
	nStates := 1 << uint(c.k-1)
	stateMask := uint32(nStates - 1)

	type trans struct {
		next uint32
		out0 byte
		out1 byte
	}
	tr := make([][2]trans, nStates)
	for s := 0; s < nStates; s++ {
		for in := 0; in < 2; in++ {
			full := (uint32(s)<<1 | uint32(in)) & ((1 << uint(c.k)) - 1)
			tr[s][in] = trans{
				next: full & stateMask,
				out0: parity(full & c.polyA),
				out1: parity(full & c.polyB),
			}
		}
	}

	const inf = math.MaxInt32 / 2
	metric := make([]int32, nStates)
	next := make([]int32, nStates)
	for i := range metric {
		metric[i] = inf
	}
	metric[0] = 0

	prevState := make([][]uint32, nSteps)
	prevInput := make([][]byte, nSteps)

	for step := 0; step < nSteps; step++ {
		r0, r1 := coded[2*step]&1, coded[2*step+1]&1
		ps := make([]uint32, nStates)
		pi := make([]byte, nStates)
		for i := range next {
			next[i] = inf
		}
		for s := 0; s < nStates; s++ {
			m := metric[s]
			if m >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				t := tr[s][in]
				var branch int32
				if t.out0 != r0 {
					branch++
				}
				if t.out1 != r1 {
					branch++
				}
				nm := m + branch
				if nm < next[t.next] {
					next[t.next] = nm
					ps[t.next] = uint32(s)
					pi[t.next] = byte(in)
				}
			}
		}
		metric, next = next, metric
		prevState[step] = ps
		prevInput[step] = pi
	}

	bits := make([]byte, nSteps)
	state := uint32(0)
	for step := nSteps - 1; step >= 0; step-- {
		bits[step] = prevInput[step][state]
		state = prevState[step][state]
	}
	return bits[:msgLen], int(metric[0]), nil
}

func refDecodeSoft(c *ConvCode, soft []float64) ([]byte, error) {
	if len(soft)%2 != 0 || len(soft) < 2*(c.k-1) {
		return nil, ErrBadCodeLength
	}
	nSteps := len(soft) / 2
	msgLen := nSteps - (c.k - 1)
	nStates := 1 << uint(c.k-1)
	stateMask := uint32(nStates - 1)

	type trans struct {
		next       uint32
		out0, out1 float64
	}
	tr := make([][2]trans, nStates)
	for s := 0; s < nStates; s++ {
		for in := 0; in < 2; in++ {
			full := (uint32(s)<<1 | uint32(in)) & ((1 << uint(c.k)) - 1)
			e0, e1 := -1.0, -1.0
			if parity(full&c.polyA) == 1 {
				e0 = 1
			}
			if parity(full&c.polyB) == 1 {
				e1 = 1
			}
			tr[s][in] = trans{next: full & stateMask, out0: e0, out1: e1}
		}
	}

	const ninf = -1e18
	metric := make([]float64, nStates)
	next := make([]float64, nStates)
	for i := range metric {
		metric[i] = ninf
	}
	metric[0] = 0

	prevState := make([][]uint32, nSteps)
	prevInput := make([][]byte, nSteps)
	for step := 0; step < nSteps; step++ {
		r0, r1 := soft[2*step], soft[2*step+1]
		ps := make([]uint32, nStates)
		pi := make([]byte, nStates)
		for i := range next {
			next[i] = ninf
		}
		for s := 0; s < nStates; s++ {
			m := metric[s]
			if m <= ninf {
				continue
			}
			for in := 0; in < 2; in++ {
				t := tr[s][in]
				nm := m + t.out0*r0 + t.out1*r1
				if nm > next[t.next] {
					next[t.next] = nm
					ps[t.next] = uint32(s)
					pi[t.next] = byte(in)
				}
			}
		}
		metric, next = next, metric
		prevState[step] = ps
		prevInput[step] = pi
	}

	bits := make([]byte, nSteps)
	state := uint32(0)
	for step := nSteps - 1; step >= 0; step-- {
		bits[step] = prevInput[step][state]
		state = prevState[step][state]
	}
	return bits[:msgLen], nil
}

func TestViterbiHardMatchesReference(t *testing.T) {
	for _, c := range []*ConvCode{NewV27(), NewV29()} {
		rng := rand.New(rand.NewSource(int64(c.k)))
		ws := c.NewWorkspace()
		for trial := 0; trial < 50; trial++ {
			msgBits := make([]byte, 8*(1+rng.Intn(64)))
			for i := range msgBits {
				msgBits[i] = byte(rng.Intn(2))
			}
			coded := c.EncodeBits(msgBits)
			// Flip up to 6% of bits — some trials decode wrong messages,
			// which is fine: optimized and reference must still agree.
			flips := rng.Intn(len(coded) / 16)
			for i := 0; i < flips; i++ {
				coded[rng.Intn(len(coded))] ^= 1
			}
			want, wantMetric, err := refDecodeBitsMetric(c, coded)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.decodeHardBits(coded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("K=%d trial %d: decoded bits diverge from reference", c.k, trial)
			}
			if gotMetric := pathMetric(c, coded, got); gotMetric != wantMetric {
				t.Fatalf("K=%d trial %d: path metric %d, reference %d", c.k, trial, gotMetric, wantMetric)
			}
		}
	}
}

func TestViterbiSoftMatchesReference(t *testing.T) {
	for _, c := range []*ConvCode{NewV27(), NewV29()} {
		rng := rand.New(rand.NewSource(100 + int64(c.k)))
		ws := c.NewWorkspace()
		for trial := 0; trial < 50; trial++ {
			msgBits := make([]byte, 8*(1+rng.Intn(64)))
			for i := range msgBits {
				msgBits[i] = byte(rng.Intn(2))
			}
			coded := c.EncodeBits(msgBits)
			soft := make([]float64, len(coded))
			for i, b := range coded {
				v := -1.0
				if b == 1 {
					v = 1
				}
				soft[i] = v + 0.6*rng.NormFloat64()
			}
			want, err := refDecodeSoft(c, soft)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.decodeSoftBits(soft)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("K=%d trial %d: soft-decoded bits diverge from reference", c.k, trial)
			}
		}
	}
}

// pathMetric is the Viterbi winner's path metric: the Hamming distance
// between the received hard decisions (bit 0 of each entry of coded)
// and the encoding of the decoded message bits msg.
func pathMetric(c *ConvCode, coded, msg []byte) int {
	d := 0
	for i, b := range c.EncodeBits(msg) {
		if b != coded[i]&1 {
			d++
		}
	}
	return d
}

// checkHardMatchesReference decodes coded through the optimized kernel
// and the frozen reference and requires the same bits, path metric and
// error.
func checkHardMatchesReference(t *testing.T, c *ConvCode, name string, coded []byte) {
	t.Helper()
	want, wantMetric, wantErr := refDecodeBitsMetric(c, coded)
	got, gotErr := c.NewWorkspace().decodeHardBits(coded)
	if gotErr != wantErr {
		t.Fatalf("K=%d %s: error %v, reference %v", c.k, name, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("K=%d %s: decoded bits diverge from reference", c.k, name)
	}
	if gotErr != nil {
		return
	}
	if gotMetric := pathMetric(c, coded, got); gotMetric != wantMetric {
		t.Fatalf("K=%d %s: path metric %d, reference %d", c.k, name, gotMetric, wantMetric)
	}
}

// checkSoftMatchesHard decodes coded as ±1 soft metrics and requires the
// hard kernel's bits, path metric and error. This is the identity the one
// path-metric family rests on: on ±1 input the correlation metric orders
// paths exactly as Hamming distance does, ties included, so the float
// trellis picks the winner the syndrome or the integer trellis picks.
func checkSoftMatchesHard(t *testing.T, c *ConvCode, name string, coded []byte) {
	t.Helper()
	soft := make([]float64, len(coded))
	for i, b := range coded {
		soft[i] = float64(b&1)*2 - 1
	}
	want, wantErr := c.NewWorkspace().decodeHardBits(coded)
	got, gotErr := c.NewWorkspace().decodeSoftBits(soft)
	if gotErr != wantErr {
		t.Fatalf("K=%d %s: soft error %v, hard %v", c.k, name, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("K=%d %s: soft-decoded bits diverge from hard", c.k, name)
	}
	if gotErr != nil {
		return
	}
	sliced := make([]byte, len(soft))
	for i, v := range soft {
		if v > 0 {
			sliced[i] = 1
		}
	}
	if gotMetric, wantMetric := pathMetric(c, sliced, got), pathMetric(c, coded, want); gotMetric != wantMetric {
		t.Fatalf("K=%d %s: soft path metric %d, hard %d", c.k, name, gotMetric, wantMetric)
	}
}

// takesFastPath reports whether the zero-syndrome path accepts coded.
func takesFastPath(c *ConvCode, coded []byte) bool {
	c.tables()
	return c.NewWorkspace().decodeClean(coded, make([]byte, len(coded)/2))
}

// TestCleanFastPathMatchesReference pins the zero-syndrome fast path to
// the frozen Viterbi reference at its edges: it must take every clean
// word, refuse everything else, and either way return the reference's
// bits and metric.
func TestCleanFastPathMatchesReference(t *testing.T) {
	for _, c := range []*ConvCode{NewV27(), NewV29()} {
		rng := rand.New(rand.NewSource(200 + int64(c.k)))
		// Lengths straddle the 64-coefficient words the syndrome walks in;
		// 2112 is one rs8+v29 frame.
		for _, msgLen := range []int{0, 1, 7, 8, 55, 56, 57, 58, 59, 63, 64, 65, 119, 120, 121, 122, 123, 128, 1000, 2112} {
			msg := make([]byte, msgLen)
			for i := range msg {
				msg[i] = byte(rng.Intn(2))
			}
			clean := c.EncodeBits(msg)
			if !takesFastPath(c, clean) {
				t.Fatalf("K=%d msgLen=%d: clean codeword not taken by the fast path", c.k, msgLen)
			}
			checkHardMatchesReference(t, c, "clean", clean)
			if got, _ := c.NewWorkspace().decodeHardBits(clean); !bytes.Equal(got, msg) || pathMetric(c, clean, got) != 0 {
				t.Fatalf("K=%d msgLen=%d: clean decode changed the message", c.k, msgLen)
			}

			// The decoder reads bit 0 of each entry only.
			dirty := append([]byte(nil), clean...)
			for i := range dirty {
				dirty[i] |= byte(rng.Intn(128)) << 1
			}
			if !takesFastPath(c, dirty) {
				t.Fatalf("K=%d msgLen=%d: high bits of the input changed the syndrome", c.k, msgLen)
			}
			checkHardMatchesReference(t, c, "clean, high bits set", dirty)

			// One flip anywhere — first pair, last message pair, first and
			// last tail pair — is a non-zero syndrome and goes to Viterbi.
			for _, pos := range []int{0, 1, 2*msgLen - 1, 2 * msgLen, len(clean) - 2, len(clean) - 1} {
				if pos < 0 {
					continue
				}
				flipped := append([]byte(nil), clean...)
				flipped[pos] ^= 1
				if takesFastPath(c, flipped) {
					t.Fatalf("K=%d msgLen=%d: fast path accepted a flip at %d", c.k, msgLen, pos)
				}
				checkHardMatchesReference(t, c, "one flip", flipped)
			}

			// A word of the unterminated code: the encoder is cut off with
			// its register still loaded. The syndrome is zero in the first
			// nSteps coefficients and only the full one tells it apart.
			if msgLen > 0 {
				open := append(append([]byte(nil), msg...), make([]byte, c.k-1)...)
				open[len(open)-1] = 1
				cut := c.EncodeBits(open)[:len(clean)]
				if takesFastPath(c, cut) {
					t.Fatalf("K=%d msgLen=%d: fast path accepted an unterminated word", c.k, msgLen)
				}
				checkHardMatchesReference(t, c, "unterminated", cut)
			}
		}
		for _, n := range []int{0, 1, 2, 2*(c.k-1) - 2, 2*(c.k-1) - 1, 2*(c.k-1) + 1, 101} {
			checkHardMatchesReference(t, c, "bad length", make([]byte, n))
			if _, err := c.NewWorkspace().decodeHardBits(make([]byte, n)); err != ErrBadCodeLength {
				t.Fatalf("K=%d len %d: error %v, want ErrBadCodeLength", c.k, n, err)
			}
		}
	}
}

// TestCodeWithoutInverseMatchesReference covers the codes the fast path
// must leave alone: a catastrophic pair (common factor D+1) and a pair
// whose degrees both fall short of K-1, where an error-free word need
// not end in the zero state.
func TestCodeWithoutInverseMatchesReference(t *testing.T) {
	for _, c := range []*ConvCode{
		{k: 3, polyA: 0b110, polyB: 0b011},
		{k: 4, polyA: 0b0111, polyB: 0b0011},
	} {
		c.tables()
		if c.hasInverse {
			t.Fatalf("K=%d %b/%b: fast path enabled", c.k, c.polyA, c.polyB)
		}
		rng := rand.New(rand.NewSource(int64(c.polyA)))
		for trial := 0; trial < 20; trial++ {
			msg := make([]byte, 1+rng.Intn(80))
			for i := range msg {
				msg[i] = byte(rng.Intn(2))
			}
			coded := c.EncodeBits(msg)
			checkHardMatchesReference(t, c, "clean", coded)
			coded[rng.Intn(len(coded))] ^= 1
			checkHardMatchesReference(t, c, "one flip", coded)
		}
	}
	for _, c := range []*ConvCode{NewV27(), NewV29()} {
		c.tables()
		if !c.hasInverse || gf2Mul(c.invA, c.polyA)^gf2Mul(c.invB, c.polyB) != 1 {
			t.Fatalf("K=%d: no feed-forward inverse (%b, %b)", c.k, c.invA, c.invB)
		}
	}
}

func TestViterbiWorkspaceZeroAlloc(t *testing.T) {
	c := NewV29()
	rng := rand.New(rand.NewSource(9))
	msg := make([]byte, 264)
	rng.Read(msg)
	coded, codedBits := c.Encode(msg)
	soft := make([]float64, codedBits)
	for i := range soft {
		if (coded[i/8]>>(7-i%8))&1 == 1 {
			soft[i] = 1
		} else {
			soft[i] = -1
		}
	}
	noisy := append([]byte(nil), coded...)
	noisy[len(noisy)/2] ^= 0x10 // one channel error: the Viterbi path
	if takesFastPath(c, BytesToBits(noisy)[:codedBits]) {
		t.Fatal("the noisy word is a codeword")
	}

	ws := c.NewWorkspace()
	// Warm up so the survivor memory has grown to steady state.
	if _, err := ws.Decode(noisy, codedBits); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.DecodeSoft(soft); err != nil {
		t.Fatal(err)
	}

	for _, in := range []struct {
		name  string
		coded []byte
	}{{"clean (fast path)", coded}, {"noisy (Viterbi)", noisy}} {
		if n := testing.AllocsPerRun(20, func() {
			if got, err := ws.Decode(in.coded, codedBits); err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("%s: decoded %d bytes, err %v", in.name, len(got), err)
			}
		}); n != 0 {
			t.Errorf("Workspace.Decode, %s: %v allocs/run, want 0", in.name, n)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ws.DecodeSoft(soft); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Workspace.DecodeSoft: %v allocs/run, want 0", n)
	}
}

func TestSharedCodeConcurrentDecode(t *testing.T) {
	// NewV29 returns a shared instance; its lazily built tables must be
	// safe under concurrent use, each goroutine decoding on its own
	// Workspace (run with -race).
	c := NewV29()
	msg := make([]byte, 264)
	for i := range msg {
		msg[i] = byte(i)
	}
	coded, codedBits := c.Encode(msg)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			ws := c.NewWorkspace()
			for i := 0; i < 20; i++ {
				got, err := ws.Decode(coded, codedBits)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got[:len(msg)], msg) {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errors.New("decode mismatch")
