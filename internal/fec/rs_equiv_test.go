package fec

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// Equivalence tests pinning the table-driven RS codec to the
// pre-optimization implementation, kept below as a verbatim reference
// copy (renamed ref*). GF(2^8) arithmetic is exact, so every output —
// encoded stream, corrected data, corrected-symbol count, and error
// classification — must match byte for byte on every input, correctable
// or not.

// --- verbatim pre-optimization reference implementation ---

func refEncodeBlock(r *RS, data []byte) ([]byte, error) {
	if len(data) > r.k {
		return nil, errTestOverlong
	}
	parity := make([]byte, r.nroots)
	for _, d := range data {
		fb := d ^ parity[0]
		copy(parity, parity[1:])
		parity[r.nroots-1] = 0
		if fb != 0 {
			for i := 0; i < r.nroots; i++ {
				parity[i] ^= gfMul(fb, r.gen[i+1])
			}
		}
	}
	out := make([]byte, 0, len(data)+r.nroots)
	out = append(out, data...)
	out = append(out, parity...)
	return out, nil
}

var errTestOverlong = bytes.ErrTooLarge

// polyEval evaluates polynomial p (coefficients highest degree first) at x.
func polyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = gfMul(y, x) ^ c
	}
	return y
}

func refDecodeBlock(r *RS, block []byte) (data []byte, corrected int, err error) {
	if len(block) < r.nroots+1 || len(block) > rsN {
		return nil, 0, errTestOverlong
	}
	pad := rsN - len(block)

	synd := make([]byte, r.nroots)
	allZero := true
	for i := 0; i < r.nroots; i++ {
		s := polyEval(block, gfPow(r.fcr+i))
		synd[i] = s
		if s != 0 {
			allZero = false
		}
	}
	if allZero {
		return block[:len(block)-r.nroots], 0, nil
	}

	sigma := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	b := byte(1)
	for n := 0; n < r.nroots; n++ {
		var d byte = synd[n]
		for i := 1; i <= l; i++ {
			if i < len(sigma) {
				d ^= gfMul(sigma[i], synd[n-i])
			}
		}
		if d == 0 {
			m++
			continue
		}
		if 2*l <= n {
			tmp := make([]byte, len(sigma))
			copy(tmp, sigma)
			coef := gfDiv(d, b)
			sigma = refPolyAddShift(sigma, prev, coef, m)
			prev = tmp
			l = n + 1 - l
			b = d
			m = 1
		} else {
			coef := gfDiv(d, b)
			sigma = refPolyAddShift(sigma, prev, coef, m)
			m++
		}
	}
	if l > r.nroots/2 {
		return nil, 0, ErrTooManyErrors
	}

	var errPos []int
	for i := 0; i < rsN-pad; i++ {
		xinv := gfPow(-(rsN - 1 - pad - i))
		if refPolyEvalLow(sigma, xinv) == 0 {
			errPos = append(errPos, i)
		}
	}
	if len(errPos) != l {
		return nil, 0, ErrTooManyErrors
	}

	omega := make([]byte, r.nroots)
	for i := 0; i < r.nroots; i++ {
		var acc byte
		for j := 0; j <= i && j < len(sigma); j++ {
			acc ^= gfMul(sigma[j], synd[i-j])
		}
		omega[i] = acc
	}
	for _, pos := range errPos {
		xPow := rsN - 1 - pad - pos
		xinv := gfPow(-xPow)
		var num byte
		xp := byte(1)
		for i := 0; i < len(omega); i++ {
			num ^= gfMul(omega[i], xp)
			xp = gfMul(xp, xinv)
		}
		var den byte
		for i := 1; i < len(sigma); i += 2 {
			p := byte(1)
			for j := 0; j < i-1; j++ {
				p = gfMul(p, xinv)
			}
			den ^= gfMul(sigma[i], p)
		}
		if den == 0 {
			return nil, 0, ErrTooManyErrors
		}
		mag := gfDiv(num, den)
		if r.fcr != 1 {
			mag = gfMul(mag, gfPow((1-r.fcr)*xPow))
		}
		block[pos] ^= mag
	}

	for i := 0; i < r.nroots; i++ {
		if polyEval(block, gfPow(r.fcr+i)) != 0 {
			return nil, 0, ErrTooManyErrors
		}
	}
	return block[:len(block)-r.nroots], len(errPos), nil
}

func refPolyAddShift(a, b []byte, coef byte, shift int) []byte {
	n := len(a)
	if len(b)+shift > n {
		n = len(b) + shift
	}
	out := make([]byte, n)
	copy(out, a)
	for i, bv := range b {
		out[i+shift] ^= gfMul(bv, coef)
	}
	return out
}

func refPolyEvalLow(p []byte, x byte) byte {
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = gfMul(y, x) ^ p[i]
	}
	return y
}

// --- equivalence trials ---

// corruptTrial builds one codeword (a one-codeword stream of Encode),
// injects nerr random symbol errors, and checks Decode against the
// reference byte for byte.
func corruptTrial(t *testing.T, r *RS, rng *rand.Rand, dataLen, nerr int) {
	t.Helper()
	data := make([]byte, dataLen)
	rng.Read(data)
	cw := r.Encode(data)
	refCW, err := refEncodeBlock(r, data)
	if err != nil || !bytes.Equal(cw, refCW) {
		t.Fatalf("dataLen=%d: encoded codeword differs from reference", dataLen)
	}
	for _, pos := range rng.Perm(len(cw))[:nerr] {
		cw[pos] ^= byte(1 + rng.Intn(255))
	}
	refIn := append([]byte(nil), cw...)
	gotIn := append([]byte(nil), cw...)
	wantData, wantC, wantErr := refDecodeBlock(r, refIn)
	gotData, gotC, gotErr := r.Decode(gotIn)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("dataLen=%d nerr=%d: error mismatch: ref %v vs %v", dataLen, nerr, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if wantC != gotC || !bytes.Equal(wantData, gotData) {
		t.Fatalf("dataLen=%d nerr=%d: corrected output differs (count %d vs %d)", dataLen, nerr, gotC, wantC)
	}
	// Recovery is only guaranteed within the code's correction radius;
	// beyond it a rare miscorrection may "succeed" with wrong data, and
	// only ref/opt agreement is pinned.
	if nerr <= r.nroots/2 && !bytes.Equal(gotData, data) {
		t.Fatalf("dataLen=%d nerr=%d: decode did not recover the message", dataLen, nerr)
	}
}

// TestRSDecodeBlockMatchesReference decodes one-codeword streams: shortened
// codes, corruption beyond the correction radius, and other geometries.
func TestRSDecodeBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := NewRS8()
	for trial := 0; trial < 60; trial++ {
		dataLen := 1 + rng.Intn(r.k) // exercises shortened codes heavily
		nerr := rng.Intn(r.nroots/2 + 1)
		corruptTrial(t, r, rng, dataLen, nerr)
	}
	// Beyond-capacity corruption: both decoders must agree on failure
	// (or, rarely, on a miscorrection — equivalence is what is pinned).
	for trial := 0; trial < 20; trial++ {
		dataLen := 32 + rng.Intn(r.k-32)
		nerr := r.nroots/2 + 1 + rng.Intn(8)
		corruptTrial(t, r, rng, dataLen, nerr)
	}
	// Other geometries exercise non-default root counts.
	for _, k := range []int{1, 64, 239, 254} {
		rk, err := NewRS(k)
		if err != nil {
			t.Fatalf("NewRS(%d): %v", k, err)
		}
		for trial := 0; trial < 10; trial++ {
			dataLen := 1 + rng.Intn(k)
			nerr := rng.Intn(rk.nroots/2 + 1)
			corruptTrial(t, rk, rng, dataLen, nerr)
		}
	}
}

func TestRSDecodeStreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	r := NewRS8()
	for trial := 0; trial < 10; trial++ {
		msg := make([]byte, 1+rng.Intn(3000))
		rng.Read(msg)
		enc := r.Encode(msg)
		// Sprinkle correctable errors across the stream.
		for i := 0; i < len(enc)/60; i++ {
			enc[rng.Intn(len(enc))] ^= byte(1 + rng.Intn(255))
		}
		got, gotC, gotErr := r.Decode(enc)
		// Reference streaming decode over the same corrupted stream.
		var want []byte
		wantC := 0
		var wantErr error
		rest := enc
		for len(rest) > 0 && wantErr == nil {
			n := r.k + r.nroots
			if len(rest) < n {
				n = len(rest)
			}
			block := append([]byte(nil), rest[:n]...)
			data, c, err := refDecodeBlock(r, block)
			if err != nil {
				wantErr = err
				break
			}
			wantC += c
			want = append(want, data...)
			rest = rest[n:]
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, wantErr, gotErr)
		}
		if wantErr == nil && (gotC != wantC || !bytes.Equal(got, want)) {
			t.Fatalf("trial %d: stream decode differs", trial)
		}
	}
}

func TestRSDecodedLen(t *testing.T) {
	r := NewRS8()
	for _, msgLen := range []int{1, 10, 222, 223, 224, 446, 1000} {
		if got := r.DecodedLen(r.EncodedLen(msgLen)); got != msgLen {
			t.Errorf("DecodedLen(EncodedLen(%d)) = %d", msgLen, got)
		}
	}
}

func TestRSDecodeAllocs(t *testing.T) {
	r := NewRS8()
	msg := make([]byte, 1500)
	rand.New(rand.NewSource(23)).Read(msg)
	enc := r.Encode(msg)
	enc[100] ^= 0x5a // force the full correction path
	enc[700] ^= 0x17
	if _, _, err := r.Decode(enc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := r.Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	// One output slice; the codeword copy and all decoder scratch are
	// pooled.
	if allocs > 2 {
		t.Errorf("Decode allocates %v objects per call, want <= 2", allocs)
	}
}

// TestRSDecodeConcurrent shares one codec, and so its workspace pool,
// between 8 goroutines decoding a multi-codeword stream and a
// one-codeword one. Under -race a workspace handed back to the pool
// while still in use is a data race.
func TestRSDecodeConcurrent(t *testing.T) {
	r := NewRS8()
	rng := rand.New(rand.NewSource(24))
	msg := make([]byte, 2000)
	rng.Read(msg)
	enc := r.Encode(msg)
	for i := 0; i < 20; i++ {
		enc[rng.Intn(len(enc))] ^= byte(1 + rng.Intn(255))
	}
	want, wantC, err := r.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	cw := enc[:rsN] // the first codeword, with its share of the errors
	wantBlock, wantBlockC, err := r.Decode(cw)
	if err != nil || wantBlockC == 0 {
		t.Fatalf("Decode of one codeword corrected %d symbols, err %v; want a correction", wantBlockC, err)
	}
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				got, c, err := r.Decode(enc)
				if err != nil || c != wantC || !bytes.Equal(got, want) {
					fail <- "concurrent Decode diverged"
					return
				}
				got, c, err = r.Decode(cw)
				if err != nil || c != wantBlockC || !bytes.Equal(got, wantBlock) {
					fail <- "concurrent one-codeword Decode diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	if msg, bad := <-fail; bad {
		t.Fatal(msg)
	}
}
