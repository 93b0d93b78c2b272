package main

import (
	"bytes"
	"image/png"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sonic/internal/audio"
	"sonic/internal/client"
	"sonic/internal/core"
	"sonic/internal/server"
)

// TestSavedPageMatchesClientOpen: the PNG and click-map JSON sonic-client
// writes for a broadcast WAV (the hardware path scripts/check.sh drives:
// sonic-server -emit khabar.pk/ -hour 9, then sonic-client) hold exactly
// the raster and scaled click map the client app's Open shows for the
// same page, at check.sh's default screen and at a phone's.
func TestSavedPageMatchesClientOpen(t *testing.T) {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// sonic-server -emit's render and encode.
	const url = "khabar.pk/"
	now := time.Unix(0, 0).Add(9 * time.Hour)
	bundle, err := server.New(server.DefaultConfig(), pipe).RenderPage(url, now)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := pipe.EncodePageAudio(1, bundle)
	if err != nil {
		t.Fatal(err)
	}
	var wav bytes.Buffer
	if err := audio.WriteWAV(&wav, &audio.Buffer{Rate: 48000, Samples: samples}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for _, screen := range []int{1080, 720} {
		_, pg, err := receive(bytes.NewReader(wav.Bytes()), screen)
		if err != nil {
			t.Fatalf("screen %d: %v", screen, err)
		}
		pngPath, clicksPath := filepath.Join(dir, "page.png"), filepath.Join(dir, "clicks.json")
		if err := pg.save(pngPath, clicksPath); err != nil {
			t.Fatal(err)
		}

		dev := client.New(client.Config{ScreenWidth: screen})
		dev.HandleBroadcast(url, bundle, now, time.Hour, 1)
		want, err := dev.Open(url, now)
		if err != nil {
			t.Fatal(err)
		}

		f, err := os.Open(pngPath)
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if b := img.Bounds(); b.Dx() != want.Image.W || b.Dy() != want.Image.H {
			t.Fatalf("screen %d: PNG is %dx%d, Open shows %dx%d", screen, b.Dx(), b.Dy(), want.Image.W, want.Image.H)
		}
		for y := 0; y < want.Image.H; y++ {
			for x := 0; x < want.Image.W; x++ {
				r, g, b, _ := img.At(x, y).RGBA()
				c := want.Image.At(x, y)
				if uint8(r>>8) != c.R || uint8(g>>8) != c.G || uint8(b>>8) != c.B {
					t.Fatalf("screen %d: PNG pixel (%d,%d) differs from Open's", screen, x, y)
				}
			}
		}

		gotClicks, err := os.ReadFile(clicksPath)
		if err != nil {
			t.Fatal(err)
		}
		wantClicks, err := want.Clicks.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotClicks, wantClicks) {
			t.Errorf("screen %d: click-map JSON differs from Open's scaled map", screen)
		}
	}
}
