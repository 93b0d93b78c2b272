package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// The runner behind the one command: every workload in a child process
// of its own (fresh heap, fresh caches, GOMAXPROCS pinned), repeated
// `repeats` times with the same seed, then judged by the benchmark's own
// rules: a wall-clock metric may not differ between two sets by more
// than its bound in BENCHMARK.json, and a simulated-clock metric may not
// differ at all.

// childRun is a child's result line plus the wall time of its timed
// region, which the traced run's result line does not carry.
type childRun struct {
	result
	wallS float64
}

// runOne executes one child and returns its result. verbose passes the
// child's human-readable output through.
func runOne(exe, workload string, seed int64, seconds int, traced bool, outDir string, verbose bool) (*childRun, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", t, "--out", outDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	if verbose {
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
	}
	var res childRun
	if err := json.Unmarshal([]byte(last), &res.result); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	for _, l := range lines {
		if !verbose && strings.Contains(l, "FAILED:") {
			fmt.Println(l)
		}
		if rest, ok := strings.CutPrefix(l, timedRegionPrefix); ok {
			fmt.Sscanf(rest, "%fs wall", &res.wallS)
		}
	}
	return &res, nil
}

// metricSummary is one metric of one workload over the sets.
type metricSummary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	Exact    bool      `json:"exact"`
	Verdict  string    `json:"verdict"`
}

// summary is what the command leaves in out/summary.json. This harness
// defines the instrument; it never claims a gain, hence the last field.
type summary struct {
	Host     host            `json:"host"`
	Seed     int64           `json:"seed"`
	Seconds  int             `json:"seconds"`
	Sets     int             `json:"sets"`
	Metrics  []metricSummary `json:"metrics"`
	Breaches []string        `json:"breaches"`
	Claim    *string         `json:"claim"`
}

// judge compares the sets of one metric pairwise, in the order run.
func judge(def metricDef, bound float64, vals []float64) (verdict string, breaches []string) {
	verdict = "ok"
	for i := 1; i < len(vals); i++ {
		a, b := vals[i-1], vals[i]
		switch {
		case def.exact() && a != b:
			verdict = "DIFFERS"
			breaches = append(breaches, fmt.Sprintf("%s: exact metric read %v in set %d and %v in set %d", def.Name, a, i, b, i+1))
		case !def.exact() && worseBy(def.Better, a, b) > bound:
			verdict = "EXCEEDS"
			breaches = append(breaches, fmt.Sprintf("%s: set %d is %.1f%% worse than set %d (bound %.1f%%)",
				def.Name, i+1, 100*worseBy(def.Better, a, b), i, 100*bound))
		}
	}
	return verdict, breaches
}

func orchestrate(man *manifest, seed int64, seconds, repeats int, traced bool, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	h := hostRecord()
	fmt.Printf("SONIC benchmark: %d workloads x %d sets, seed %d, %d s each, GOMAXPROCS %d\n", len(workloads), repeats, seed, seconds, procs)
	fmt.Printf("host: %d CPU (%s), %s, commit %s\n\n", h.NumCPU, h.CPUModel, h.GoVersion, h.Commit)

	failed := false
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	walls := map[string][]float64{}             // workload -> untraced timed wall per set
	for set := 1; set <= repeats; set++ {
		for _, wl := range workloads {
			res, err := runOne(exe, wl.Name, seed, seconds, false, outDir, set == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				failed = true
			}
			if values[wl.Name] == nil {
				values[wl.Name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[wl.Name][name] = append(values[wl.Name][name], mv.Value)
			}
			walls[wl.Name] = append(walls[wl.Name], res.wallS)
			fmt.Printf("set %d  %-15s correct=%v failed=%d/%d\n\n", set, wl.Name, res.Correct, res.Failed, res.Attempted)
		}
	}
	if traced {
		for _, wl := range workloads {
			res, err := runOne(exe, wl.Name, seed, seconds, true, outDir, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				failed = true
			}
			// what tracing cost, measured rather than estimated: the traced
			// timed region next to the untraced ones of the same seed
			base := median(walls[wl.Name])
			fmt.Printf("traced %-15s correct=%v  timed wall %.2fs traced, %.2fs untraced (%+.1f%%)\n\n",
				wl.Name, res.Correct, res.wallS, base, 100*(res.wallS-base)/base)
		}
	}

	sum := summary{Host: h, Seed: seed, Seconds: seconds, Sets: repeats, Breaches: []string{}}
	fmt.Printf("%-15s %-18s %14s %14s %14s %8s %7s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			vals := values[wl.Name][def.Name]
			ms := metricSummary{Workload: wl.Name, Metric: def.Name, Unit: def.Unit, Values: vals,
				Median: median(vals), Bound: man.bound(def.Name), Exact: def.exact()}
			ms.Q1, _, ms.Q3 = quartiles(vals)
			ms.Spread = spread(vals)
			var breaches []string
			ms.Verdict, breaches = judge(def, ms.Bound, vals)
			for _, b := range breaches {
				sum.Breaches = append(sum.Breaches, wl.Name+" "+b)
			}
			sum.Metrics = append(sum.Metrics, ms)
			fmt.Printf("%-15s %-18s %14.6g %14.6g %14.6g %7.2f%% %6.1f%%  %s\n",
				wl.Name, def.Name, ms.Median, ms.Q1, ms.Q3, 100*ms.Spread, 100*ms.Bound, ms.Verdict)
		}
	}
	for _, b := range sum.Breaches {
		fmt.Println("BREACH:", b)
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err = os.MkdirAll(outDir, 0o755); err == nil {
		err = os.WriteFile(filepath.Join(outDir, "summary.json"), buf.Bytes(), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// the tail of the summary, so the run ends on what it claims: nothing
	tail := strings.Split(strings.TrimSpace(buf.String()), "\n")
	fmt.Printf("\nsummary written to %s; it ends:\n%s\n", filepath.Join(outDir, "summary.json"), strings.Join(tail[max(0, len(tail)-3):], "\n"))
	if failed || len(sum.Breaches) > 0 {
		return 1
	}
	return 0
}
