// Command sonic-bench regenerates every table and figure of the paper's
// evaluation (§4). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured for each.
//
// Usage:
//
//	sonic-bench -exp all            # everything (minutes)
//	sonic-bench -exp fig4a          # one experiment
//	sonic-bench -exp fig4b -quick   # reduced workload
//	sonic-bench -exp fig1 -out dir  # also write Figure 1 PNG panels
//	sonic-bench -cpuprofile out.pprof -exp fig4a  # CPU profile
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"sonic/internal/broadcast"
	"sonic/internal/corpus"
	"sonic/internal/experiments"
	"sonic/internal/imagecodec"
)

// experimentNames are the -exp values: "all" and each experiment's name.
var experimentNames = []string{
	"all", "fig1", "fig4a", "fig4b", "fig4c", "rssi", "fig5",
	"rate", "baseline", "compression", "ablation",
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, "|"))
		quick   = flag.Bool("quick", false, "reduced workload for a fast pass")
		out     = flag.String("out", "", "directory for image artifacts (fig1)")
		csvDir  = flag.String("csv", "", "directory for plotting-ready CSV exports")
		seed    = flag.Int64("seed", 1, "experiment seed")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()
	if !slices.Contains(experimentNames, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==> %s\n", name)
		t0 := time.Now()
		if err := fn(); err != nil {
			pprof.StopCPUProfile()
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(t0).Seconds())
	}

	pages := 100
	trials := 10
	frames := 20
	fig5 := experiments.DefaultFig5()
	hours := 48
	if *quick {
		pages, trials, frames = 12, 3, 10
		fig5.Pages, fig5.ViewportH = 8, 1500
		hours = 24
	}

	// The simulators' page sizes (fig4c, the carousel ablation): the
	// server's hour-0 bundles, rendered once on first use.
	pageSizes := sync.OnceValues(func() (broadcast.SizeFunc, error) {
		return experiments.PageSizes(corpus.Pages())
	})

	run("fig1", func() error {
		r := experiments.RunFig1(2500, *seed)
		experiments.PrintFig1(os.Stdout, r)
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			if err := writePNG(filepath.Join(*out, "fig1-original.png"), r.Original); err != nil {
				return err
			}
			if err := writePNG(filepath.Join(*out, "fig1-10pct-loss.png"), r.Lossy); err != nil {
				return err
			}
			if err := writePNG(filepath.Join(*out, "fig1-interpolated.png"), r.Interpolated); err != nil {
				return err
			}
			fmt.Printf("wrote Figure 1 panels to %s\n", *out)
		}
		return nil
	})

	run("fig4a", func() error {
		cfg := experiments.DefaultFig4a()
		cfg.Trials, cfg.FramesPerTrial, cfg.Seed = trials, frames, *seed
		pts, err := experiments.RunFig4a(cfg)
		if err != nil {
			return err
		}
		experiments.PrintFig4a(os.Stdout, pts)
		return csvFig4a(*csvDir, pts)
	})

	run("fig4b", func() error {
		res, err := experiments.RunFig4b(pages)
		if err != nil {
			return err
		}
		experiments.PrintFig4b(os.Stdout, res)
		return csvFig4b(*csvDir, res)
	})

	run("fig4c", func() error {
		size, err := pageSizes()
		if err != nil {
			return err
		}
		curves, err := experiments.RunFig4c(hours, size)
		if err != nil {
			return err
		}
		experiments.PrintFig4c(os.Stdout, curves)
		return csvFig4c(*csvDir, curves)
	})

	run("rssi", func() error {
		pts, err := experiments.RunRSSISweep(trials, frames, *seed)
		if err != nil {
			return err
		}
		experiments.PrintRSSISweep(os.Stdout, pts)
		return csvRSSI(*csvDir, pts)
	})

	run("fig5", func() error {
		fig5.Seed = *seed
		res := experiments.RunFig5(fig5)
		experiments.PrintFig5(os.Stdout, res)
		return csvFig5(*csvDir, res)
	})

	run("rate", func() error {
		r, err := experiments.RunRate(64 * 1024)
		if err != nil {
			return err
		}
		experiments.PrintRate(os.Stdout, r)
		return nil
	})

	run("baseline", func() error {
		r, err := experiments.RunBaseline(1024)
		if err != nil {
			return err
		}
		experiments.PrintBaseline(os.Stdout, r)
		return nil
	})

	run("compression", func() error {
		r, err := experiments.RunCompression(min(pages, 25))
		if err != nil {
			return err
		}
		experiments.PrintCompression(os.Stdout, r)
		return nil
	})

	run("ablation", func() error {
		fecRows, err := experiments.RunAblationFEC(16, frames, trials, *seed)
		if err != nil {
			return err
		}
		experiments.PrintAblation(os.Stdout, "Ablation: FEC stack @16dB audio SNR (frame loss)", fecRows)

		ilRows, err := experiments.RunAblationInterleaver(64, 4, 40, *seed)
		if err != nil {
			return err
		}
		experiments.PrintAblation(os.Stdout, "Ablation: interleaver under bursty corruption (codeword failure)", ilRows)

		conRows, err := experiments.RunAblationConstellation(12, frames, *seed)
		if err != nil {
			return err
		}
		experiments.PrintAblation(os.Stdout, "Ablation: constellation @12dB audio SNR (frame loss)", conRows)

		partRows, err := experiments.RunAblationPartitioning(0.10, *seed)
		if err != nil {
			return err
		}
		experiments.PrintAblation(os.Stdout, "Ablation: partition geometry + interp priority @10% loss (residual damage)", partRows)

		softRows, err := experiments.RunAblationSoftDecision(frames, trials, *seed)
		if err != nil {
			return err
		}
		experiments.PrintAblation(os.Stdout, "Ablation: hard vs soft-decision Viterbi near the cliff (frame loss)", softRows)

		size, err := pageSizes()
		if err != nil {
			return err
		}
		carRows, err := experiments.RunAblationCarousel(size)
		if err != nil {
			return err
		}
		experiments.PrintAblation(os.Stdout, "Ablation: carousel scheduling policy (expected wait, seconds)", carRows)
		return nil
	})
}

// writePNG saves a raster panel to disk.
func writePNG(path string, img *imagecodec.Raster) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return img.WritePNG(f)
}
