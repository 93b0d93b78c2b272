package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestStagedHelpersMatchEncodePageAudio pins the artifact-cache entry
// points — BlobStream / ModulateStream — sample-identical to the
// one-shot EncodePageAudio path they decompose.
func TestStagedHelpersMatchEncodePageAudio(t *testing.T) {
	p := newDefault(t)
	rng := rand.New(rand.NewSource(42))
	img := make([]byte, 2500)
	rng.Read(img)
	b := Bundle{Image: img, ClickMap: []byte(`{"page":"staged.pk/"}`)}
	const pageID = 11

	wantAudio, err := p.EncodePageAudio(pageID, b)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := p.BlobStream(pageID, MarshalBundle(b))
	if err != nil {
		t.Fatal(err)
	}

	audio := p.ModulateStream(stream)
	if len(audio) != len(wantAudio) {
		t.Fatalf("staged audio length %d != one-shot %d", len(audio), len(wantAudio))
	}
	for i := range audio {
		if audio[i] != wantAudio[i] {
			t.Fatalf("staged audio diverges from EncodePageAudio at sample %d", i)
		}
	}

	// The staged stream must still decode end to end.
	res, err := p.DecodePageAudio(audio)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.PageID != pageID || !bytes.Equal(res.Bundle.Image, img) {
		t.Fatalf("staged audio failed decode: %+v", res)
	}
}

// TestConfigDigestStableAcrossPipelines pins that two pipelines built
// from the same Config share one digest (they may share artifacts) and
// that ConfigDigest matches Config.Digest.
func TestConfigDigestStableAcrossPipelines(t *testing.T) {
	cfg := DefaultConfig()
	p1, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ConfigDigest() != p2.ConfigDigest() {
		t.Fatal("identical configs produced different digests")
	}
	if p1.ConfigDigest() != cfg.Digest() {
		t.Fatal("ConfigDigest disagrees with Config.Digest")
	}
}
