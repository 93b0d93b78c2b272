// Command benchmark is SONIC's one benchmark: four workloads over the
// whole pipeline, ten end-to-end metrics and a per-layer account that
// adds up. README.md in this directory defines every workload and
// metric; BENCHMARK.json at the root of the repository is its manifest.
//
//	bash benchmark/run.sh --seed 1                       # all four workloads, three sets, spread and bounds
//	bash benchmark/run.sh --seed 1 --repeats 1 --trace 1 # one set plus the traced run and its budget tables
//	bash benchmark/run.sh --workload sms_storm --seed 7 --seconds 20 --trace 0   # one run, one JSON result line
//
// With --workload the process runs that workload once and prints, as
// the last line of its output, one JSON object {correct, attempted,
// failed, metrics}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Without it, the process runs every workload
// in a child process of its own and summarizes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// processStart is as close to process start as a Go program can see;
// setup_s counts from here.
var processStart = time.Now()

// procs is the GOMAXPROCS every run is pinned to; the harness refuses
// to measure on a box with fewer CPUs than that.
const procs = 2

func main() {
	workload := flag.String("workload", "", "run this one workload and print its JSON result line")
	seed := flag.Int64("seed", 1, "workload seed: the only input of a workload")
	seconds := flag.Int("seconds", 0, "how long the timed region should last on the reference box (0: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: trace the run from the harness side, report per-layer metrics and a budget")
	repeats := flag.Int("repeats", 3, "without --workload: how many full sets to run")
	outDir := flag.String("out", "benchmark/out", "directory for trace files and the summary")
	flag.Parse()

	if runtime.NumCPU() < procs {
		fmt.Fprintf(os.Stderr, "benchmark: this box has %d CPU, the workloads are defined at GOMAXPROCS=%d; refusing to emit numbers\n", runtime.NumCPU(), procs)
		os.Exit(2)
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 || *repeats < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *seconds == 0 {
		*seconds = man.RunSeconds
	}
	if *workload == "" {
		os.Exit(orchestrate(man, *seed, *seconds, *repeats, *trace == 1, *outDir))
	}
	wl := findWorkload(*workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *workload)
		os.Exit(2)
	}
	os.Exit(runChild(wl, *seed, *seconds, *trace == 1, *outDir))
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs one workload in this process and prints its numbers.
func runChild(wl *workloadDef, seed int64, seconds int, traced bool, outDir string) int {
	runtime.GOMAXPROCS(procs)
	h := hostRecord()
	e := &env{seed: seed, sz: sizesFor(seconds), start: processStart}
	var cost time.Duration
	if traced {
		cost = spanCost()
		e.tr = newTracer()
	}
	fmt.Printf("workload %s  seed %d  seconds %d  trace %v\n", wl.Name, seed, seconds, traced)
	fmt.Printf("  why: %s\n", wl.Why)
	fmt.Printf("  host: %d CPU (%s), %s, GOMAXPROCS %d, commit %s\n", h.NumCPU, h.CPUModel, h.GoVersion, h.GOMAXPROCS, h.Commit)
	rep, err := wl.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.Name, err)
		return 1
	}
	res := finish(os.Stdout, wl, rep, e, h, cost, outDir)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// finish turns a report into the result line, printing every metric by
// name with its unit on the way.
func finish(w io.Writer, wl *workloadDef, rep *report, e *env, h host, cost time.Duration, outDir string) result {
	e2e := rep.endToEndMetrics()
	spans := e.tr.snapshot()
	bud := summarize(spans)
	if e.tr.on() {
		ops := float64(max(rep.ops, 1))
		rep.set("runtime.peak_rss_mb", rep.m.maxRSS)
		rep.set("runtime.alloc_mb_per_op", float64(rep.m.allocB)/ops/1e6)
		rep.set("runtime.gc_pause_ms", float64(rep.m.gcPause)/1e6)
		if cpu := rep.m.cpu.Seconds(); cpu > 0 {
			rep.set("runtime.gc_cpu_share", rep.m.gcCPU/cpu)
		}
		if rep.m.wall > 0 {
			rep.set("harness.trace_overhead_share", float64(e.tr.clocks/2)*float64(cost)/float64(rep.m.wall))
		}
		rep.set("harness.budget_residual_share", bud.residualShare())
		if rep.enforce && bud.residualShare() > maxResidualShare {
			rep.fail(1, "budget: %.1f%% of the op's wall time is not accounted for by any layer (limit %.0f%%)",
				100*bud.residualShare(), 100*maxResidualShare)
		}
	}

	fmt.Fprintf(w, "  sizes: %+v\n  input digest: %s\n", e.sz, rep.inputDigest)
	fmt.Fprintf(w, timedRegionPrefix+"%.2fs wall, %.2fs CPU (%.2fs system), %d ops (%d attempted), %d transmissions, %d on-air samples (+%d unserved), tail = p%g\n",
		rep.m.wall.Seconds(), rep.m.cpu.Seconds(), rep.m.sys.Seconds(), rep.ops, rep.attempted, len(rep.airS), len(rep.onAirS), rep.unserved,
		100*tailQuantile(len(rep.onAirS)))
	fmt.Fprintf(w, "  memory: %.0f MB in use on average over %d samples, resident set peaked at %.0f MB\n", mean(rep.m.inUse), len(rep.m.inUse), rep.m.maxRSS)
	res := result{Metrics: map[string]metricValue{}}
	fmt.Fprintln(w, "  end-to-end:")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "    %-32s %16.6g %s\n", m.Name, e2e[m.Name], m.Unit)
		if !e.tr.on() {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
	}
	if e.tr.on() {
		fmt.Fprintln(w, "  per-layer (traced run):")
		for _, m := range perLayer {
			fmt.Fprintf(w, "    %-32s %16.6g %s\n", m.Name, rep.layer[m.Name], m.Unit)
			res.Metrics[m.Name] = metricValue{rep.layer[m.Name], m.Unit}
		}
		printBudget(w, rep.budgetTitle, bud, rep.budgetRows)
		path, err := writeTrace(outDir, traceFile{Workload: wl.Name, Seed: e.seed, Host: h, Spans: spans})
		if err != nil {
			rep.fail(1, "trace file: %v", err)
		} else {
			fmt.Fprintf(w, "  trace: %d spans in %s\n", len(spans), path)
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	res.Attempted = max(rep.attempted, 1)
	res.Failed = min(rep.failedOps, res.Attempted)
	res.Correct = rep.failedOps == 0
	return res
}

// timedRegionPrefix opens the line that reports the timed region; the
// runner reads the wall time back from it (the traced result line has no
// end-to-end metric to take it from).
const timedRegionPrefix = "  timed region: "

// manifest is BENCHMARK.json, which holds the bounds.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the repository: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds missing", path)
	}
	return &m, nil
}

func (m *manifest) bound(name string) float64 {
	for _, e := range m.EndToEnd {
		if e.Name == name {
			return e.Bound
		}
	}
	return 0
}
