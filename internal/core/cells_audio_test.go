package core

import (
	"bytes"
	"math/rand"
	"testing"

	"sonic/internal/fm"
	"sonic/internal/imagecodec"
)

func cellsTestImage() *imagecodec.Raster {
	img := imagecodec.NewRaster(40, 120)
	img.FillRect(0, 0, 40, 16, imagecodec.RGB{R: 20, G: 40, B: 160})
	img.FillRect(8, 50, 24, 30, imagecodec.RGB{R: 180, G: 30, B: 30})
	return img
}

func TestCellsAudioCleanRoundTrip(t *testing.T) {
	p := newDefault(t)
	img := cellsTestImage()
	audio, err := p.EncodeCellsAudio(9, img)
	if err != nil {
		t.Fatal(err)
	}
	got, pixelLoss, frameLoss, err := p.DecodeCellsAudio(audio, img.W, img.H)
	if err != nil {
		t.Fatal(err)
	}
	if pixelLoss != 0 || frameLoss != 0 {
		t.Errorf("clean channel: pixelLoss=%g frameLoss=%g", pixelLoss, frameLoss)
	}
	if !bytes.Equal(got.Pix, img.Pix) {
		t.Fatal("clean channel changed pixels")
	}
}

func TestCellsAudioSurvivesLossyChannel(t *testing.T) {
	// The whole point of the cell transport: at a loss level where the
	// bitstream transport would void the page, the cell path still
	// yields a usable image with bounded pixel damage.
	p := newDefault(t)
	img := cellsTestImage()
	audio, err := p.EncodeCellsAudio(9, img)
	if err != nil {
		t.Fatal(err)
	}
	// Scan the cliff region until a draw produces partial frame loss.
	var (
		got                  *imagecodec.Raster
		pixelLoss, frameLoss float64
	)
	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		for _, snr := range []float64{11, 10.5, 10} {
			link := &fm.AWGNLink{SNRdB: snr, Rng: rand.New(rand.NewSource(seed))}
			rx := link.Transmit(audio, 48000)
			g, pl, fl, err := p.DecodeCellsAudio(rx, img.W, img.H)
			if err != nil {
				continue
			}
			if fl > 0 && fl < 1 {
				got, pixelLoss, frameLoss, found = g, pl, fl, true
				break
			}
		}
	}
	if !found {
		t.Skip("no partial-loss draw in the scan window")
	}
	if pixelLoss >= 1 {
		t.Fatalf("no pixels survived (frameLoss %.2f)", frameLoss)
	}
	// After interpolation the image should still resemble the original.
	var diff float64
	for i := range img.Pix {
		d := float64(img.Pix[i]) - float64(got.Pix[i])
		diff += d * d
	}
	if mse := diff / float64(len(img.Pix)); mse > 2500 {
		t.Errorf("healed MSE %.0f too high at frame loss %.2f", mse, frameLoss)
	}
}

func TestCellAirtimeExceedsBitstream(t *testing.T) {
	p := newDefault(t)
	// A page-like image: mostly flat with a photo block.
	img := imagecodec.NewRaster(200, 400)
	img.FillRect(0, 0, 200, 40, imagecodec.RGB{R: 10, G: 60, B: 120})
	cellSec, err := p.CellAirtimeSeconds(img)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := imagecodec.EncodeSIC(img, 10)
	if err != nil {
		t.Fatal(err)
	}
	bitSec := p.AirtimeSeconds(len(enc))
	if cellSec <= bitSec {
		t.Errorf("cell airtime %.1fs should exceed bitstream %.1fs", cellSec, bitSec)
	}
	t.Logf("airtime: cells %.1fs vs bitstream %.1fs (%.0fx)", cellSec, bitSec, cellSec/bitSec)
}
