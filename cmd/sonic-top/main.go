// Command sonic-top is a live terminal ops view for a running SONIC
// process serving the telemetry endpoint (sonic-sim/-server/-bench with
// -telemetry). It polls /metrics.json and renders the request lifecycle
// at a glance: request→on-air and request→delivered quantiles, per-stage
// waits, SLO compliance, per-transmitter queue depth and age, render
// cache hit rate, and carousel rotation health.
//
//	sonic-top -addr 127.0.0.1:7380            # refresh every 2s
//	sonic-top -addr 127.0.0.1:7380 -once      # one snapshot and exit
//	sonic-top -addr 127.0.0.1:7380 -interval 5s
//
// Exits non-zero when the endpoint is unreachable, which makes -once
// usable as a health probe in scripts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"sonic/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7380", "telemetry endpoint address (host:port)")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render one snapshot and exit")
	)
	flag.Parse()

	url := "http://" + *addr + "/metrics.json"
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		snap, err := fetch(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sonic-top: %v\n", err)
			os.Exit(1)
		}
		if !*once {
			fmt.Print("\033[H\033[2J") // clear the terminal between frames
		}
		render(os.Stdout, *addr, snap)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

func fetch(client *http.Client, url string) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// seconds formats a latency with a scale-appropriate unit.
func seconds(s float64) string {
	d := time.Duration(s * float64(time.Second))
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	default:
		return d.Round(10 * time.Microsecond).String()
	}
}

// labelOf returns the value of the named label in a metric key, if any.
func labelOf(key, label string) (string, bool) {
	_, labels := telemetry.ParseMetricKey(key)
	for _, kv := range labels {
		if kv[0] == label {
			return kv[1], true
		}
	}
	return "", false
}

func render(w *os.File, addr string, s telemetry.Snapshot) {
	fmt.Fprintf(w, "sonic-top — %s @ %s\n", addr, s.TakenAt.Format(time.RFC3339))

	// --- request lifecycle -------------------------------------------------
	fmt.Fprintln(w, "\nrequest lifecycle")
	for _, m := range []struct{ title, key string }{
		{"  request->on-air   ", "request_to_on_air_seconds"},
		{"  request->delivered", "request_to_delivered_seconds"},
	} {
		if h, ok := s.Histograms[m.key]; ok && h.Count > 0 {
			fmt.Fprintf(w, "%s  n=%-6d p50 %-10s p99 %s\n", m.title, h.Count, seconds(h.P50), seconds(h.P99))
		} else {
			fmt.Fprintf(w, "%s  (no completed requests yet)\n", m.title)
		}
	}
	fmt.Fprintf(w, "  open traces %-8.0f requests %-6d on-air %-6d delivered %-6d aborted %d\n",
		s.Gauges["lifecycle_open_traces"],
		s.Counters["lifecycle_requests_total"], s.Counters["lifecycle_on_air_total"],
		s.Counters["lifecycle_delivered_total"], s.Counters["lifecycle_aborted_total"])

	// --- per-stage waits ----------------------------------------------------
	type stageRow struct {
		stage string
		h     telemetry.HistogramSnapshot
	}
	var stages []stageRow
	for k, h := range s.Histograms {
		if name, _ := telemetry.ParseMetricKey(k); name == "lifecycle_stage_wait_seconds" && h.Count > 0 {
			if stage, ok := labelOf(k, "stage"); ok {
				stages = append(stages, stageRow{stage, h})
			}
		}
	}
	if len(stages) > 0 {
		order := map[string]int{"admitted": 0, "render_start": 1, "render_done": 2,
			"enqueued": 3, "on_air_start": 4, "on_air_done": 5, "delivered": 6}
		sort.Slice(stages, func(i, j int) bool { return order[stages[i].stage] < order[stages[j].stage] })
		fmt.Fprintln(w, "\nstage waits (time spent entering each stage)")
		for _, r := range stages {
			fmt.Fprintf(w, "  %-13s n=%-6d p50 %-10s p99 %s\n", r.stage, r.h.Count, seconds(r.h.P50), seconds(r.h.P99))
		}
	}

	// --- SLO compliance -----------------------------------------------------
	type sloRow struct {
		name       string
		ok, breach int64
	}
	slos := map[string]*sloRow{}
	for k, v := range s.Counters {
		name, _ := telemetry.ParseMetricKey(k)
		if name != "lifecycle_slo_ok_total" && name != "lifecycle_slo_breach_total" {
			continue
		}
		slo, _ := labelOf(k, "slo")
		row := slos[slo]
		if row == nil {
			row = &sloRow{name: slo}
			slos[slo] = row
		}
		if name == "lifecycle_slo_ok_total" {
			row.ok += v
		} else {
			row.breach += v
		}
	}
	if len(slos) > 0 {
		fmt.Fprintln(w, "\nSLOs")
		names := make([]string, 0, len(slos))
		for n := range slos {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r := slos[n]
			total := r.ok + r.breach
			pct := 100.0
			if total > 0 {
				pct = 100 * float64(r.ok) / float64(total)
			}
			status := "OK"
			if r.breach > 0 {
				status = fmt.Sprintf("%d BREACHED", r.breach)
			}
			fmt.Fprintf(w, "  %-22s %6.1f%% within budget (%d/%d)  %s\n", r.name, pct, r.ok, total, status)
		}
	}

	// --- queues ---------------------------------------------------------------
	var txs []string
	for k := range s.Gauges {
		if name, _ := telemetry.ParseMetricKey(k); name == "server_queue_depth_pages" {
			if tx, ok := labelOf(k, "tx"); ok {
				txs = append(txs, tx)
			}
		}
	}
	if len(txs) > 0 {
		sort.Strings(txs)
		fmt.Fprintln(w, "\ntransmitter queues")
		for _, tx := range txs {
			depth := s.Gauges[fmt.Sprintf("server_queue_depth_pages{tx=%s}", tx)]
			bytes := s.Gauges[fmt.Sprintf("server_queue_depth_bytes{tx=%s}", tx)]
			age := s.Gauges[fmt.Sprintf("server_queue_age_seconds{tx=%s}", tx)]
			fmt.Fprintf(w, "  %-12s %4.0f pages  %8.0f KB  head age %s\n", tx, depth, bytes/1024, seconds(age))
		}
	}

	// --- server + carousel -------------------------------------------------
	hits, misses := s.Counters["server_render_cache_hits_total"], s.Counters["server_render_cache_misses_total"]
	if hits+misses > 0 {
		fmt.Fprintf(w, "\nrender cache: %.1f%% hit rate (%d hits / %d misses); artifact cache %g entries, %.1f MB\n",
			100*float64(hits)/float64(hits+misses), hits, misses,
			s.Gauges["artifact_cache_entries"], s.Gauges["artifact_cache_bytes"]/1e6)
	}
	if depth := s.Gauges["carousel_depth_pages"]; depth > 0 {
		fmt.Fprintf(w, "carousel: %.0f pages in rotation, max re-air period %s, schedule horizon %s\n",
			depth, seconds(s.Gauges["carousel_max_period_seconds"]),
			seconds(s.Gauges["carousel_schedule_horizon_seconds"]))
	}
	if strings.TrimSpace(os.Getenv("SONIC_TOP_RAW")) != "" {
		fmt.Fprintf(w, "\n%d counters, %d gauges, %d histograms, %d spans registered\n",
			len(s.Counters), len(s.Gauges), len(s.Histograms), len(s.Spans))
	}
}
