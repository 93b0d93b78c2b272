package client

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sonic/internal/core"
	"sonic/internal/telemetry"
)

// TestConcurrentClientUse drives broadcast ingest, page opens, catalog
// reads, and registry snapshots from many goroutines. Under -race it
// proves the page map and the lifecycle delivery confirmation path stay
// data-race free.
func TestConcurrentClientUse(t *testing.T) {
	c := New(Config{Number: "+9201", SonicNumber: "+92111", ScreenWidth: 720})
	reg := telemetry.New()
	telemetry.NewLifecycle(reg, telemetry.LifecycleConfig{})
	c.Instrument(reg)
	now := time.Unix(0, 0)

	const workers = 8
	b := makeBundle(t, "seed.pk/", "seed.pk/next")

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			url := fmt.Sprintf("page-%d.pk/", w)
			for i := 0; i < 10; i++ {
				c.HandleBroadcast(url, b, now, time.Hour, 1.0)
				if _, err := c.Open(url, now); err != nil {
					t.Error(err)
					return
				}
				c.Catalog(now)
				reg.Snapshot()
			}
		}(w)
	}
	wg.Wait()

	// Every worker's page was received and is still cached; every open
	// above succeeded.
	if got := c.Catalog(now); len(got) != workers {
		t.Errorf("catalog = %v, want %d pages", got, workers)
	}
}

// TestConcurrentRebroadcastOneURL races rebroadcasts of one URL against
// opens and catalog reads of it. Under -race it proves the page map is
// guarded by the client's one mutex; every reader sees a whole page,
// whichever broadcast it came from.
func TestConcurrentRebroadcastOneURL(t *testing.T) {
	c := New(Config{ScreenWidth: 1080})
	now := time.Unix(0, 0)
	const url = "shared.pk/"
	bundles := []core.Bundle{makeBundle(t, url, "shared.pk/a"), makeBundle(t, url, "shared.pk/b")}
	c.HandleBroadcast(url, bundles[0], now, time.Hour, 1)

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch w % 3 {
				case 0:
					c.HandleBroadcast(url, bundles[i%2], now, time.Hour, float64(i))
				case 1:
					p, err := c.Open(url, now)
					if err != nil {
						t.Error(err)
						return
					}
					if len(p.Clicks.Regions) != 1 {
						t.Errorf("regions = %+v", p.Clicks.Regions)
						return
					}
				default:
					if got := c.Catalog(now); len(got) != 1 || got[0] != url {
						t.Errorf("catalog = %v", got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
