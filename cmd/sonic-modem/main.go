// Command sonic-modem encodes arbitrary payload files into SONIC audio
// (WAV) and back — the data-over-sound layer by itself, equivalent to
// driving the Quiet library with the paper's 92-subcarrier profile.
//
//	sonic-modem -mode encode -in page.bin -out burst.wav
//	sonic-modem -mode decode -in burst.wav -out page.bin
//	sonic-modem -mode encode -profile audible7k -fec=false ...
package main

import (
	"flag"
	"fmt"
	"os"

	"sonic/internal/audio"
	"sonic/internal/dsp"
	"sonic/internal/fec"
	"sonic/internal/frame"
	"sonic/internal/modem"
)

func main() {
	var (
		mode    = flag.String("mode", "encode", "encode, decode, or spectrogram")
		in      = flag.String("in", "", "input file (payload for encode, WAV for decode/spectrogram)")
		out     = flag.String("out", "", "output file")
		profile = flag.String("profile", "sonic92", "modem profile: sonic92 or audible7k")
		useFEC  = flag.Bool("fec", true, "apply the rs8+v29 frame FEC stack")
	)
	flag.Parse()
	if *in == "" || (*out == "" && *mode != "spectrogram") {
		flag.Usage()
		os.Exit(2)
	}

	var prof modem.Profile
	switch *profile {
	case "sonic92":
		prof = modem.Sonic92()
	case "audible7k":
		prof = modem.Audible7k()
	default:
		fatalf("unknown profile %q", *profile)
	}
	m, err := modem.NewOFDM(prof)
	if err != nil {
		fatalf("modem: %v", err)
	}
	var codec *frame.Codec
	if *useFEC {
		codec = frame.NewCodec()
	} else {
		codec = frame.NewCodecWith(nil, nil)
	}

	switch *mode {
	case "encode":
		payload, err := os.ReadFile(*in)
		if err != nil {
			fatalf("read: %v", err)
		}
		frames := frame.Chunk(1, payload)
		stream, err := codec.EncodeStream(frames)
		if err != nil {
			fatalf("fec: %v", err)
		}
		samples := audio.Floats(m.Modulate(stream))
		buf := &audio.Buffer{Rate: prof.SampleRate, Samples: samples}
		f, err := os.Create(*out)
		if err != nil {
			fatalf("create: %v", err)
		}
		defer f.Close()
		if err := audio.WriteWAV(f, buf); err != nil {
			fatalf("wav: %v", err)
		}
		fmt.Printf("encoded %d bytes -> %d frames -> %.2fs of audio (%s)\n",
			len(payload), len(frames), buf.Duration(), prof.Name)

	case "decode":
		f, err := os.Open(*in)
		if err != nil {
			fatalf("open: %v", err)
		}
		defer f.Close()
		buf, err := audio.ReadWAV(f)
		if err != nil {
			fatalf("wav: %v", err)
		}
		res, err := m.Demodulate(buf.Samples)
		if err != nil {
			fatalf("demodulate: %v", err)
		}
		frames, lost := codec.DecodeStream(res.Payload)
		if len(frames) == 0 {
			fatalf("no frames recovered (%d lost)", lost)
		}
		r := frame.NewReassembler(frames[0].PageID)
		for _, fr := range frames {
			r.Add(fr)
		}
		blob, ok := r.Bytes()
		if !ok {
			fatalf("incomplete: %d/%d frames (%.0f%% loss)",
				r.Received(), r.Total(), r.LossRate()*100)
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatalf("write: %v", err)
		}
		fmt.Printf("decoded %d bytes from %d frames (SNR %.1f dB, %d lost, crc32 %08x)\n",
			len(blob), r.Received(), res.SNRdB, lost, fec.Checksum32(blob))

	case "spectrogram":
		f, err := os.Open(*in)
		if err != nil {
			fatalf("open: %v", err)
		}
		defer f.Close()
		buf, err := audio.ReadWAV(f)
		if err != nil {
			fatalf("wav: %v", err)
		}
		spec, err := dsp.Spectrogram(buf.Samples, 1024, 512)
		if err != nil {
			fatalf("spectrogram: %v", err)
		}
		for _, line := range dsp.SpectrogramASCII(spec, 20, 100) {
			fmt.Println(line)
		}
		binHz := float64(buf.Rate) / 1024
		inBand := dsp.BandEnergy(spec, 1024, float64(buf.Rate),
			prof.CenterHz-3000, prof.CenterHz+3000)
		total := dsp.BandEnergy(spec, 1024, float64(buf.Rate), 0, float64(buf.Rate)/2)
		fmt.Printf("%.1fs of audio at %d Hz; %.0f%% of energy within +-3 kHz of %.0f Hz (bin %.1f Hz)\n",
			buf.Duration(), buf.Rate, inBand/total*100, prof.CenterHz, binHz)

	default:
		fatalf("unknown mode %q", *mode)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
