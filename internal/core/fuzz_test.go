package core

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalBundle: bundle blobs arrive off the air and over the
// control link, so any bytes must parse or fail with an error, never
// panic; a blob that parses re-marshals to a prefix of itself (trailing
// bytes past the two announced parts are the only thing dropped).
func FuzzUnmarshalBundle(f *testing.F) {
	good := MarshalBundle(Bundle{Image: []byte{1, 2, 3}, ClickMap: []byte(`{"page":"a.pk/"}`)})
	huge := append([]byte(nil), good...)
	huge[0] = 0xFF
	for _, seed := range [][]byte{good, huge, {1}, nil, append(good, 9, 9),
		{0x7F, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		b, err := UnmarshalBundle(blob)
		if err != nil {
			return
		}
		if again := MarshalBundle(b); !bytes.HasPrefix(blob, again) {
			t.Fatalf("parsed bundle re-marshals to %d bytes that are not a prefix of the %d-byte input", len(again), len(blob))
		}
	})
}
