// Package broadcast simulates SONIC's broadcast backlog — the paper's
// Figure 4(c): the amount of data waiting to be transmitted over time,
// given the 100-page Pakistani corpus re-rendering hourly and a fixed
// number of FM frequencies (one for the paper's 10 kbps, two and four
// for its 20/40 kbps multi-frequency operation).
package broadcast

import (
	"fmt"

	"sonic/internal/core"
	"sonic/internal/corpus"
)

// SizeFunc returns the broadcast size in bytes of a page at an hour (the
// marshaled bundle the server airs; see experiments.PageSizes).
type SizeFunc func(ref corpus.PageRef, hour int) int

// airSeconds is how long a page of n bytes holds a station: the
// pipeline's airtime for it, spread over the station's frequencies. It
// is the charge the server's ETAs and admission use.
func airSeconds(pipe *core.Pipeline, frequencies, n int) float64 {
	return pipe.AirtimeSeconds(n) / float64(frequencies)
}

// stepMinutes is the backlog sampling resolution.
const stepMinutes = 10

// Config parameterizes one simulation run.
type Config struct {
	Pages       []corpus.PageRef
	Frequencies int // parallel FM frequencies (1, 2, 4 for the paper's 10/20/40 kbps)
	Hours       int // simulated duration (paper plots 48 of 72)
	Size        SizeFunc
}

// Point is one backlog sample.
type Point struct {
	THours  float64
	Backlog int // bytes waiting to be broadcast
}

// Result is a finished simulation.
type Result struct {
	Series []Point
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Pages) == 0 || c.Frequencies <= 0 || c.Hours <= 0 || c.Size == nil {
		return fmt.Errorf("broadcast: incomplete config")
	}
	return nil
}

// Simulate runs the backlog model on pipe's airtime: at hour 0 every page
// is queued (the initial push); at each following hour boundary every
// page whose content changed is re-queued; the station airs the queue in
// order, each page for airSeconds of its bytes. The sampled backlog is
// the bytes not yet aired, the page on air counted pro rata.
func Simulate(pipe *core.Pipeline, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type page struct {
		bytes int
		air   float64
	}
	var (
		queue  []page
		queued int     // bytes in queue
		onAir  float64 // seconds the head page has aired
	)
	res := &Result{}
	const stepsPerHour = 60 / stepMinutes
	for h := 0; h < cfg.Hours; h++ {
		for _, p := range cfg.Pages {
			if h == 0 || corpus.ChangedAt(p, h) {
				n := cfg.Size(p, h)
				queue = append(queue, page{n, airSeconds(pipe, cfg.Frequencies, n)})
				queued += n
			}
		}
		for s := 0; s < stepsPerHour; s++ {
			for budget := float64(stepMinutes * 60); budget > 0 && len(queue) > 0; {
				if left := queue[0].air - onAir; left <= budget {
					budget -= left
					queued -= queue[0].bytes
					queue, onAir = queue[1:], 0
				} else {
					onAir += budget
					budget = 0
				}
			}
			backlog := float64(queued)
			if len(queue) > 0 {
				backlog -= float64(queue[0].bytes) * onAir / queue[0].air
			}
			res.Series = append(res.Series, Point{
				THours:  float64(h) + float64(s+1)/stepsPerHour,
				Backlog: int(backlog),
			})
		}
	}
	return res, nil
}

// Summary condenses a run for table output.
type Summary struct {
	PeakBytes    int
	FinalBytes   int
	MeanBytes    float64
	ZeroFraction float64 // fraction of samples with an empty queue
}

// Summarize computes the run summary.
func (r *Result) Summarize() Summary {
	var s Summary
	var sum float64
	zeros := 0
	for _, p := range r.Series {
		if p.Backlog > s.PeakBytes {
			s.PeakBytes = p.Backlog
		}
		if p.Backlog == 0 {
			zeros++
		}
		sum += float64(p.Backlog)
	}
	if n := len(r.Series); n > 0 {
		s.FinalBytes = r.Series[n-1].Backlog
		s.MeanBytes = sum / float64(n)
		s.ZeroFraction = float64(zeros) / float64(n)
	}
	return s
}

// ExtendCorpus grows the page set to n pages for the paper's N:200 curve
// by cloning corpus pages under variant URLs (same churn class, same
// size class, distinct identity).
func ExtendCorpus(n int) []corpus.PageRef {
	base := corpus.Pages()
	out := make([]corpus.PageRef, 0, n)
	for i := 0; len(out) < n; i++ {
		ref := base[i%len(base)]
		if i >= len(base) {
			ref.URL = fmt.Sprintf("%s?v=%d", ref.URL, i/len(base))
		}
		out = append(out, ref)
	}
	return out
}
