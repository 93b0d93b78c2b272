// Broadcastday simulates two days of SONIC operation over the Pakistani
// corpus — Figure 4(c): the broadcast backlog under different channel
// rates, with the hourly content churn of real news sites. It prints an
// ASCII rendering of the backlog series.
package main

import (
	"fmt"
	"log"
	"strings"

	"sonic"
	"sonic/internal/broadcast"
	"sonic/internal/corpus"
)

func main() {
	for _, rate := range []float64{10000, 20000, 40000} {
		res, err := sonic.SimulateBacklog(sonic.BacklogConfig{
			Pages:       corpus.Pages(),
			RateBps:     rate,
			Hours:       48,
			StepMinutes: 30,
			Size:        broadcast.ModelSize,
		})
		if err != nil {
			log.Fatal(err)
		}
		s := summarize(res)
		fmt.Printf("\nRate %2.0f kbps, N=100 pages: peak %.1f MB, mean %.1f MB, idle %.0f%%\n",
			rate/1000, s.peakMB, s.meanMB, s.idlePct)
		plot(res)
	}
	fmt.Println("\npaper: at 10 kbps the queue rarely drains (broadcast-only);")
	fmt.Println("20/40 kbps reach zero nightly — SONIC is scalable but capacity-bound.")
}

type summary struct{ peakMB, meanMB, idlePct float64 }

func summarize(r *broadcast.Result) summary {
	s := r.Summarize()
	return summary{
		peakMB:  float64(s.PeakBytes) / (1 << 20),
		meanMB:  s.MeanBytes / (1 << 20),
		idlePct: s.ZeroFraction * 100,
	}
}

// plot renders the series as a small ASCII chart (8 rows, 96 cols).
func plot(r *broadcast.Result) {
	const rows, cols = 8, 96
	peak := 1
	for _, p := range r.Series {
		if p.Backlog > peak {
			peak = p.Backlog
		}
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for i, p := range r.Series {
		c := i * cols / len(r.Series)
		h := p.Backlog * (rows - 1) / peak
		for y := 0; y <= h; y++ {
			grid[rows-1-y][c] = '#'
		}
	}
	fmt.Printf("%5.1fMB |%s|\n", float64(peak)/(1<<20), grid[0])
	for _, row := range grid[1 : rows-1] {
		fmt.Printf("        |%s|\n", row)
	}
	fmt.Printf("    0MB |%s|\n", grid[rows-1])
	fmt.Printf("         0h%sh48\n", strings.Repeat(" ", cols-6))
}
