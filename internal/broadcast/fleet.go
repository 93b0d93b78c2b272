package broadcast

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sonic/internal/artifact"
	"sonic/internal/core"
	"sonic/internal/corpus"
)

// Fleet is the multi-core broadcast engine: T towers replaying their
// carousel rotations concurrently on a bounded worker pool, with every
// per-page artifact — SIC bundle blob, FEC-framed stream, modulated
// audio — resolved through a shared content-addressed artifact.Chain.
// The paper's deployment is one national corpus aired by many regional
// FM transmitters; the chain makes that shape cheap: N towers airing
// the same page at the same content epoch compute each pipeline stage
// exactly once fleet-wide, and per-stage singleflight pipelines the
// work (tower A modulates page X while tower B's blob for page Y is
// still encoding). Output is byte-identical to a serial per-tower
// replay — pinned by TestRunFleetMatchesSerialTowers.

// RenderFunc produces the rendered bundle for a page at a corpus hour —
// the raster stage the artifact chain does not own. The fleet engine
// invokes it under the chain's blob singleflight, so it runs once per
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
	// Workers bounds the pool draining towers concurrently; 0 means
	// GOMAXPROCS, 1 is the serial reference.
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
// Each tower walks its own deterministic schedule on its own simulated
// clock; all artifact computation funnels through the shared chain. The
// result is independent of Workers (pinned byte-identical in tests):
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
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := range cfg.Pages {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ref := cfg.Pages[i]
			eff := corpus.EffectiveHour(ref, 0)
			blob, err := cfg.Chain.Blob(cfg.Chain.Key(ref.URL, eff, ids[ref.URL]), func() (core.Bundle, error) {
				return cfg.Render(ref, 0)
			})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("broadcast: cold build %s: %w", ref.URL, err)
				}
				mu.Unlock()
				return
			}
			sizes[i] = len(blob)
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	size := func(ref corpus.PageRef, _ int) int { return sizes[ids[ref.URL]-1] }

	res := &FleetResult{Towers: make([]FleetTower, cfg.Towers)}
	for tower := 0; tower < cfg.Towers; tower++ {
		wg.Add(1)
		go func(tower int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tr, err := runTower(cfg, pipe, ids, size, tower)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("broadcast: tower %d: %w", tower, err)
			}
			res.Towers[tower] = tr
			mu.Unlock()
		}(tower)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for _, tr := range res.Towers {
		res.Transmissions += tr.Transmissions
		res.PayloadBytes += tr.PayloadBytes
		res.AirSeconds += tr.AirSeconds
	}
	res.WallSeconds = time.Since(t0).Seconds()
	res.Cache = cfg.Chain.Stats()
	res.DedupFactor = res.Cache.Dedup()
	return res, nil
}

// runTower replays one tower's rotation to the horizon: demand-ranked
// carousel, virtual-finish-time schedule, every slot modulated through
// the shared chain at the slot's effective hour.
func runTower(cfg FleetConfig, pipe *core.Pipeline, ids map[string]uint16, size SizeFunc, tower int) (FleetTower, error) {
	var demand map[string]float64
	if cfg.Demand != nil {
		demand = cfg.Demand(tower)
	}
	car, err := MeasuredCarousel(cfg.Pages, size, demand, cfg.Policy)
	if err != nil {
		return FleetTower{}, err
	}
	entries := car.Entries()
	sched := car.Schedule(4 * (cfg.Hours + 1) * len(cfg.Pages))
	horizon := float64(cfg.Hours) * 3600

	tr := FleetTower{Tower: tower}
	simT := 0.0
replay:
	for {
		for _, idx := range sched {
			if simT >= horizon {
				break replay
			}
			ref := entries[idx].Ref
			hour := int(simT / 3600)
			eff := corpus.EffectiveHour(ref, hour)
			k := cfg.Chain.Key(ref.URL, eff, ids[ref.URL])
			render := func() (core.Bundle, error) { return cfg.Render(ref, hour) }
			blob, err := cfg.Chain.Blob(k, render)
			if err != nil {
				return tr, err
			}
			audio, err := cfg.Chain.Audio(k, render)
			if err != nil {
				return tr, err
			}
			simT += pipe.AirtimeSeconds(len(blob))
			tr.Transmissions++
			tr.PayloadBytes += int64(len(blob))
			tr.AudioSamples += int64(len(audio))
		}
	}
	tr.AirSeconds = simT
	return tr, nil
}
