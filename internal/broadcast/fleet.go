package broadcast

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"sonic/internal/artifact"
	"sonic/internal/core"
	"sonic/internal/corpus"
	"sonic/internal/parallel"
)

// Fleet is the multi-core broadcast engine: T towers replaying their
// carousel rotations on one simulated clock, with every per-page
// artifact — SIC bundle blob, FEC-framed stream, modulated audio —
// resolved through a shared content-addressed artifact.Chain. The
// paper's deployment is one national corpus aired simultaneously by many
// regional FM transmitters, and the replay keeps that order: the next
// airing fleet-wide is the one that starts earliest, and only airings
// that overlap on the simulated clock are in flight together, so towers
// airing the same page at the same moment ask for it together. A slot is
// then modulated once at any cache size, and a page once when the
// rotation fits the cache; the chain holds one computation in flight
// per (page, stage), which pipelines the work (tower A modulates page X
// while tower B's blob for page Y is still encoding). Output is byte-identical to a serial per-tower replay —
// pinned by TestRunFleetMatchesSerialTowers and
// TestRunFleetAirsEachSlotOnce.

// RenderFunc produces the rendered bundle for a page at a corpus hour —
// the raster stage the artifact chain does not own. The fleet engine
// invokes it as the chain's render stage, so it runs once per
// (page, effective hour) fleet-wide no matter how many towers ask.
type RenderFunc func(ref corpus.PageRef, hour int) (core.Bundle, error)

// DemandFunc returns a tower's measured request counts by URL (see
// server.TowerDemand); nil demand falls back to static corpus
// popularity for every tower.
type DemandFunc func(tower int) map[string]float64

// FleetConfig parameterizes one fleet replay.
type FleetConfig struct {
	// Towers is the transmitter count (the fleet width).
	Towers int
	// Workers bounds the airings in flight at once; 0 means GOMAXPROCS,
	// 1 is the serial reference.
	Workers int
	// Hours is the simulated broadcast horizon per tower.
	Hours int
	// Pages is the corpus each tower rotates (hourly churn applies).
	Pages []corpus.PageRef
	// Policy selects the carousel airtime allocation.
	Policy CarouselPolicy
	// Chain is the shared fleet-wide artifact cache (required).
	Chain *artifact.Chain
	// Render is the raster+SIC stage (required).
	Render RenderFunc
	// Demand optionally skews each tower's carousel toward its measured
	// request mix; nil uses static popularity fleet-wide.
	Demand DemandFunc
}

func (c FleetConfig) validate() error {
	if c.Towers <= 0 || c.Hours <= 0 || len(c.Pages) == 0 {
		return errors.New("broadcast: fleet needs towers, hours, and pages")
	}
	if c.Chain == nil || c.Render == nil {
		return errors.New("broadcast: fleet needs an artifact chain and a render func")
	}
	return nil
}

// FleetTower is one tower's replay accounting.
type FleetTower struct {
	Tower         int     `json:"tower"`
	Transmissions int     `json:"transmissions"`
	PayloadBytes  int64   `json:"payload_bytes"`
	AirSeconds    float64 `json:"air_seconds"`
	AudioSamples  int64   `json:"audio_samples"`
}

// FleetResult is a finished fleet replay.
type FleetResult struct {
	Towers        []FleetTower   `json:"towers"`
	Transmissions int            `json:"transmissions"`
	PayloadBytes  int64          `json:"payload_bytes"`
	AirSeconds    float64        `json:"air_seconds"` // summed across towers
	WallSeconds   float64        `json:"wall_seconds"`
	Cache         artifact.Stats `json:"cache"`
	// DedupFactor is artifact requests per computation at the audio
	// stage — ~Towers when every tower airs the same rotation.
	DedupFactor float64 `json:"dedup_factor"`
}

// RunFleet replays cfg.Hours of carousel broadcasting on every tower.
// Each tower walks its own deterministic schedule and keeps its own
// simulated time; the fleet airs them in the order of that time, and all
// artifact computation funnels through the shared chain. The per-tower
// results are independent of Workers (pinned byte-identical in tests):
// parallelism changes wall time only.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pipe := cfg.Chain.Pipeline()
	t0 := time.Now()

	// Page IDs must be fleet-stable so every tower addresses one
	// artifact per page: index order in the page list.
	ids := make(map[string]uint16, len(cfg.Pages))
	for i, ref := range cfg.Pages {
		ids[ref.URL] = uint16(i + 1)
	}

	// Midnight cold build, fleet-wide: the blob of every page at hour 0,
	// computed once through the chain and reused as the carousel size
	// base. Parallel across pages on the same worker budget.
	sizes := make([]int, len(cfg.Pages))
	errs := make([]error, len(cfg.Pages))
	parallel.For(workers, len(cfg.Pages), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ref := cfg.Pages[i]
			k := cfg.Chain.Key(ref.URL, corpus.EffectiveHour(ref, 0), ids[ref.URL])
			blob, err := cfg.Chain.Blob(k, func() (core.Bundle, error) { return cfg.Render(ref, 0) })
			sizes[i], errs[i] = len(blob), err
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("broadcast: cold build %s: %w", cfg.Pages[i].URL, err)
		}
	}
	size := func(ref corpus.PageRef, _ int) int { return sizes[ids[ref.URL]-1] }

	// One carousel and one schedule per tower, all on the fleet's clock.
	towers := make([]*fleetTower, cfg.Towers)
	for i := range towers {
		var demand map[string]float64
		if cfg.Demand != nil {
			demand = cfg.Demand(i)
		}
		car, err := MeasuredCarousel(cfg.Pages, size, demand, cfg.Policy)
		if err != nil {
			return nil, fmt.Errorf("broadcast: tower %d: %w", i, err)
		}
		towers[i] = &fleetTower{
			FleetTower: FleetTower{Tower: i},
			entries:    car.Entries(),
			sched:      car.Schedule(4 * (cfg.Hours + 1) * len(cfg.Pages)),
		}
	}
	horizon := float64(cfg.Hours) * 3600

	// The shared clock. Airings are dispatched in the order they start on
	// the simulated clock (ties to the lowest tower index), up to workers
	// of them in flight, and one starts only while every airing in flight
	// is still on air at that moment: the replay never runs ahead of an
	// airing it has not finished, so the order the chain sees is the same
	// at any worker count. The scheduling state belongs to this goroutine;
	// a tower belongs to its airing's goroutine from dispatch until done.
	done := make(chan *fleetTower)
	var firstErr error
	for inflight := 0; ; {
		for inflight < workers && firstErr == nil {
			var next *fleetTower
			onAir := math.Inf(1) // the first airing in flight to end
			for _, tw := range towers {
				switch {
				case tw.end > 0:
					onAir = min(onAir, tw.end)
				case tw.AirSeconds < horizon && (next == nil || tw.AirSeconds < next.AirSeconds):
					next = tw
				}
			}
			if next == nil || next.AirSeconds >= onAir {
				break
			}
			next.end = next.AirSeconds + pipe.AirtimeSeconds(next.entry().Bytes)
			inflight++
			go func() {
				next.err = next.airNext(cfg, pipe, ids)
				done <- next
			}()
		}
		if inflight == 0 {
			break
		}
		tw := <-done
		inflight--
		tw.end = 0
		if tw.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("broadcast: tower %d: %w", tw.Tower, tw.err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res := &FleetResult{Towers: make([]FleetTower, cfg.Towers)}
	for i, tw := range towers {
		res.Towers[i] = tw.FleetTower
		res.Transmissions += tw.Transmissions
		res.PayloadBytes += tw.PayloadBytes
		res.AirSeconds += tw.AirSeconds
	}
	res.WallSeconds = time.Since(t0).Seconds()
	res.Cache = cfg.Chain.Stats()
	res.DedupFactor = res.Cache.Dedup()
	return res, nil
}

// fleetTower is one tower's place on the fleet's clock: its demand-ranked
// carousel, its virtual-finish-time schedule and how far through it the
// tower is. AirSeconds is the tower's simulated time.
type fleetTower struct {
	FleetTower
	entries []CarouselEntry
	sched   []int
	end     float64 // when the airing in flight ends, by its carousel size; 0 when idle
	err     error   // of the last airing
}

// entry is the carousel entry of the tower's next slot.
func (tw *fleetTower) entry() CarouselEntry {
	return tw.entries[tw.sched[tw.Transmissions%len(tw.sched)]]
}

// airNext airs the tower's next slot: the page is resolved through the
// shared chain at the slot's effective hour and the tower's clock moves on
// by the page's airtime.
func (tw *fleetTower) airNext(cfg FleetConfig, pipe *core.Pipeline, ids map[string]uint16) error {
	ref := tw.entry().Ref
	hour := int(tw.AirSeconds / 3600)
	k := cfg.Chain.Key(ref.URL, corpus.EffectiveHour(ref, hour), ids[ref.URL])
	render := func() (core.Bundle, error) { return cfg.Render(ref, hour) }
	blob, err := cfg.Chain.Blob(k, render)
	if err != nil {
		return err
	}
	pcm, err := cfg.Chain.PCM(k, render)
	if err != nil {
		return err
	}
	tw.AirSeconds += pipe.AirtimeSeconds(len(blob))
	tw.Transmissions++
	tw.PayloadBytes += int64(len(blob))
	tw.AudioSamples += int64(len(pcm))
	return nil
}
