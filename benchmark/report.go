package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// env is what one run of one workload is given. The seed is the only
// workload input; sz says how much work to do; tr is nil unless the run
// is traced.
type env struct {
	seed  int64
	sz    sizes
	tr    *tracer
	start time.Time // process start, for setup_s
}

// report is what a workload measured. The end-to-end metrics are built
// from it the same way for every workload (endToEndMetrics).
type report struct {
	setup time.Duration
	m     meter // the timed region

	ops       int       // completed ops in the timed region
	attempted int       // ops attempted, for the result line
	opWallMs  []float64 // wall per op; empty when ops are not separable
	opCPUs    []float64 // CPU seconds per op, where each op is an interval of its own
	airS      []float64 // simulated airtime of each transmission
	onAirS    []float64 // simulated wait of each served listener or request
	unserved  int       // listeners or requests whose page never aired

	inputDigest string             // sha256 of the generated inputs
	layer       map[string]float64 // per-layer metrics by name
	failures    []string           // verification failures (each fails one op at least)
	failedOps   int

	budgetTitle string
	budgetRows  []budgetRow
	enforce     bool // fail the run when the budget residual exceeds the limit
}

// fail records a verification failure charged to n ops.
func (r *report) fail(n int, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	r.failedOps += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layer[name] = v
}

// endToEndMetrics derives the ten end-to-end metrics.
func (r *report) endToEndMetrics() map[string]float64 {
	ops := float64(max(r.ops, 1))
	wall := r.m.wall.Seconds()
	out := map[string]float64{
		"setup_s":        r.setup.Seconds(),
		"cpu_s_per_op":   r.m.cpu.Seconds() / ops,
		"mem_inuse_mb":   mean(r.m.inUse),
		"air_s_per_page": mean(r.airS),
	}
	// Where every op is timed on its own, the median op's CPU: the mean
	// follows the seconds during which a neighbour has the host.
	if len(r.opCPUs) > 0 {
		out["cpu_s_per_op"] = median(r.opCPUs)
	}
	if wall > 0 {
		out["ops_per_s"] = float64(r.ops) / wall
	}
	// Median wall per op where ops are separable; otherwise the mean
	// (RunFleet and the tick loop expose no per-op boundary).
	if len(r.opWallMs) > 0 {
		out["op_p50_ms"] = median(r.opWallMs)
	} else {
		out["op_p50_ms"] = 1000 * wall / ops
	}
	waits := sortedCopy(r.onAirS)
	out["on_air_p50_s"] = quantile(waits, 0.5)
	out["on_air_p99_s"] = quantile(waits, tailQuantile(len(waits)))
	within := sort.SearchFloat64s(waits, math.Nextafter(sloSeconds, math.Inf(1)))
	if n := len(waits) + r.unserved; n > 0 {
		out["on_air_slo_share"] = float64(within) / float64(n)
	}
	attempted := max(r.attempted, 1)
	out["ok_share"] = float64(attempted-min(r.failedOps, attempted)) / float64(attempted)
	return out
}

// newDigest hashes the inputs a workload generated from its seed, so
// that tests and readers can see that a seed fixes them.
func newDigest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
