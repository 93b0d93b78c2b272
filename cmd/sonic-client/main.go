// Command sonic-client decodes a SONIC page broadcast from a WAV file
// (as produced by sonic-server -emit, possibly degraded by a channel)
// into a PNG screenshot plus its click map, and can resolve a tap.
//
//	sonic-client -in page.wav -png page.png -clicks clicks.json
//	sonic-client -in page.wav -click 200,340 -screen 720
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sonic/internal/audio"
	"sonic/internal/clickmap"
	"sonic/internal/core"
	"sonic/internal/imagecodec"
)

func main() {
	var (
		in     = flag.String("in", "", "input WAV broadcast")
		png    = flag.String("png", "", "write the decoded page image here")
		clicks = flag.String("clicks", "", "write the click map JSON here")
		click  = flag.String("click", "", "resolve a tap at x,y (device coordinates)")
		screen = flag.Int("screen", 1080, "device screen width (scaling factor = screen/1080)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatalf("open: %v", err)
	}
	defer f.Close()
	res, pg, err := receive(f, *screen)
	if res != nil {
		fmt.Printf("burst: %d/%d frames (%.1f%% loss), modem SNR %.1f dB\n",
			res.FramesTotal-res.FramesLost, res.FramesTotal,
			res.FrameLossRate*100, res.ModemSNRdB)
	}
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("page %s: %dx%d (scaled %dx%d for a %dpx screen), %d link regions\n",
		pg.clicks.PageURL, pg.w, pg.h, pg.image.W, pg.image.H, *screen, len(pg.clicks.Regions))

	if err := pg.save(*png, *clicks); err != nil {
		fatalf("%v", err)
	}
	for _, path := range []string{*png, *clicks} {
		if path != "" {
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *click != "" {
		parts := strings.SplitN(*click, ",", 2)
		if len(parts) != 2 {
			fatalf("bad -click %q, want x,y", *click)
		}
		x, err1 := strconv.Atoi(parts[0])
		y, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			fatalf("bad -click %q", *click)
		}
		if url, ok := pg.clicks.Hit(x, y); ok {
			fmt.Printf("tap (%d,%d) -> %s (cached? request via SMS: GET %s LOC <lat,lon>)\n",
				x, y, url, url)
		} else {
			fmt.Printf("tap (%d,%d) -> nothing clickable\n", x, y)
		}
	}
}

// page is a received page as the device shows it: its decoded size, and
// its image and click map scaled to the screen.
type page struct {
	w, h   int
	image  *imagecodec.Raster
	clicks *clickmap.Map
}

// receive demodulates the WAV broadcast in r and opens its page for a
// screen px wide. The burst's result comes back whenever demodulation
// ran, so a caller can report the loss of an incomplete page.
func receive(r io.Reader, screen int) (*core.ReceiveResult, *page, error) {
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: %w", err)
	}
	buf, err := audio.ReadWAV(r)
	if err != nil {
		return nil, nil, fmt.Errorf("wav: %w", err)
	}
	res, err := pipe.DecodePageAudio(buf.Samples)
	if err != nil {
		return nil, nil, fmt.Errorf("decode: %w", err)
	}
	if !res.Complete {
		return res, nil, errors.New("page incomplete; cannot decode image")
	}
	img, err := imagecodec.DecodeSIC(res.Bundle.Image)
	if err != nil {
		return res, nil, fmt.Errorf("image: %w", err)
	}
	var cm clickmap.Map
	if len(res.Bundle.ClickMap) > 0 {
		if err := cm.UnmarshalJSON(res.Bundle.ClickMap); err != nil {
			return res, nil, fmt.Errorf("clickmap: %w", err)
		}
	}
	factor := float64(screen) / float64(imagecodec.PageWidth)
	return res, &page{w: img.W, h: img.H, image: img.ResizeNearest(factor), clicks: cm.Scale(factor)}, nil
}

// save writes the scaled image as PNG to pngPath and the scaled click
// map as JSON to clicksPath, skipping an empty path.
func (pg *page) save(pngPath, clicksPath string) error {
	if pngPath != "" {
		out, err := os.Create(pngPath)
		if err != nil {
			return fmt.Errorf("create: %w", err)
		}
		if err := pg.image.WritePNG(out); err != nil {
			out.Close()
			return fmt.Errorf("png: %w", err)
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("png: %w", err)
		}
	}
	if clicksPath != "" {
		data, err := pg.clicks.MarshalJSON()
		if err != nil {
			return fmt.Errorf("clickmap: %w", err)
		}
		if err := os.WriteFile(clicksPath, data, 0o644); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
