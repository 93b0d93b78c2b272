// Package broadcast simulates SONIC's broadcast backlog — the paper's
// Figure 4(c): the amount of data waiting to be transmitted over time,
// given the 100-page Pakistani corpus re-rendering hourly and a fixed
// channel rate (10 kbps for one frequency, 20/40 kbps with
// multi-frequency operation).
package broadcast

import (
	"fmt"

	"sonic/internal/corpus"
)

// SizeFunc returns the broadcast size in bytes of a page at an hour (the
// SIC-encoded bundle size; the harness plugs in measured values).
type SizeFunc func(ref corpus.PageRef, hour int) int

// ModelSize is the SizeFunc the simulators use where no measured size is
// at hand: 90–155 KB, the Q10/PH10k regime of Fig. 4(b), fixed per URL
// by a string hash and the same at every hour.
func ModelSize(ref corpus.PageRef, _ int) int {
	h := 0
	for _, c := range ref.URL {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return 90*1024 + h%(65*1024)
}

// Config parameterizes one simulation run.
type Config struct {
	Pages       []corpus.PageRef
	RateBps     float64 // channel rate (10000, 20000, 40000 in the paper)
	Hours       int     // simulated duration (paper plots 48 of 72)
	StepMinutes int     // sampling resolution
	Size        SizeFunc
}

// Point is one backlog sample.
type Point struct {
	THours  float64
	Backlog int // bytes waiting to be broadcast
}

// Result is a finished simulation.
type Result struct {
	Config Config
	Series []Point
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Pages) == 0 || c.RateBps <= 0 || c.Hours <= 0 || c.Size == nil {
		return fmt.Errorf("broadcast: incomplete config")
	}
	if c.StepMinutes <= 0 || c.StepMinutes > 60 || 60%c.StepMinutes != 0 {
		return fmt.Errorf("broadcast: step %d must divide 60", c.StepMinutes)
	}
	return nil
}

// Simulate runs the backlog model: at hour 0 every page is queued (the
// initial push); at each following hour boundary every page whose content
// changed is re-queued; the channel drains continuously at RateBps.
func Simulate(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stepSec := float64(cfg.StepMinutes) * 60
	drainPerStep := cfg.RateBps * stepSec / 8

	backlog := 0.0
	for _, p := range cfg.Pages {
		backlog += float64(cfg.Size(p, 0))
	}
	res := &Result{Config: cfg}
	stepsPerHour := 60 / cfg.StepMinutes
	for h := 0; h < cfg.Hours; h++ {
		if h > 0 {
			for _, p := range cfg.Pages {
				if corpus.ChangedAt(p, h) {
					backlog += float64(cfg.Size(p, h))
				}
			}
		}
		for s := 0; s < stepsPerHour; s++ {
			backlog -= drainPerStep
			if backlog < 0 {
				backlog = 0
			}
			res.Series = append(res.Series, Point{
				THours:  float64(h) + float64(s+1)/float64(stepsPerHour),
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
