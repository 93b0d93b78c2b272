package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Harness-side tracing. All spans are recorded from this directory,
// around calls into each layer's public functions; nothing inside
// internal/ is touched. Two kinds of span exist:
//
//   - A real span brackets a call made as part of an op. Real spans nest
//     by time: a handler the harness wraps runs inside SMSC.Advance, a
//     render callback runs inside RunFleet.
//   - A replay span stands for work the harness cannot see because it
//     happens inside a composite call (HandleSMS renders, DequeueAudioAt
//     modulates). Right after the op the harness runs the same layer's
//     public function on the op's own input, checks that the output is
//     identical, and records the duration as a child of the composite
//     span. Times says how often that work ran inside the parent.
//
// A span's self time is its duration minus what its children cover: the
// union of the real children's intervals plus duration×times of each
// replay child. Self times of one op therefore add up to the op's wall
// time; what is left on the op's root span is time no layer accounts
// for, and a layer whose self time, summed over the ops, is negative has
// replays that cost more than the calls they explain. Both count as
// budget residual.

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: the root span of its op
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"` // since the tracer was made
	End    int64   `json:"end_ns"`
	Replay bool    `json:"replay,omitempty"`
	Times  float64 `json:"times,omitempty"`  // replay: repetitions inside the parent
	Calls  int     `json:"calls,omitempty"`  // calls folded into this span (0 means 1)
	Budget bool    `json:"budget,omitempty"` // root: the op is fully traced and enters the budget
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

func (s span) calls() int {
	if s.Calls > 0 {
		return s.Calls
	}
	return 1
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// "tracing off": every method is a no-op, so the untraced run takes the
// same code path without recording or reading the clock for spans.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	clocks int // clock reads taken for tracing, for the overhead estimate
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) on() bool { return t != nil }

// begin opens a real span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clocks++
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.clocks++
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// do brackets fn with a real span.
func (t *tracer) do(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// replay runs fn as a replay child of parent (only when tracing).
func (t *tracer) replay(name string, parent, op int, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
	t.mu.Lock()
	t.spans[id-1].Replay = true
	t.spans[id-1].Times = 1
	t.mu.Unlock()
}

// add records a span whose timing the caller took itself: a real span
// folding calls separate calls that started at start and together took
// total, or (replay) a unit cost that ran times times inside parent.
func (t *tracer) add(s span, start time.Time, total time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start = int64(start.Sub(t.t0))
	s.End = s.Start + int64(total)
	t.spans = append(t.spans, s)
	return s.ID
}

// noteClocks accounts clock reads the caller took only because tracing
// is on (per-call timing folded into one span).
func (t *tracer) noteClocks(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clocks += n
	t.mu.Unlock()
}

// markBudget enters a root span's op into the budget; calls, when
// positive, says how many user-level ops the span stands for.
func (t *tracer) markBudget(id, calls int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Budget = true
	t.spans[id-1].Calls = calls
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds, by span id.
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		if s.Replay {
			self[s.ID] = s.dur() * s.Times
			continue
		}
		var ivs [][2]int64
		covered := 0.0
		for _, ci := range children[s.ID] {
			c := spans[ci]
			if c.Replay {
				covered += c.dur() * c.Times
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var end int64 = -1 << 62
		for _, iv := range ivs {
			if iv[0] > end {
				covered += float64(iv[1] - iv[0])
				end = iv[1]
			} else if iv[1] > end {
				covered += float64(iv[1] - end)
				end = iv[1]
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// budget is the per-layer account of the ops that were fully traced.
type budget struct {
	Ops      int                // budget ops (root spans marked Budget)
	Units    int                // user-level ops they stand for (root Calls)
	OpNs     float64            // their summed wall time
	Layer    map[string]float64 // span name -> summed self time, roots excluded
	RootSelf float64            // time inside the ops no span accounts for
	Negative float64            // by how much replays over-explain the layers they decompose
}

func (b budget) residualShare() float64 {
	if b.OpNs == 0 {
		return 0
	}
	return (b.RootSelf + b.Negative) / b.OpNs
}

func summarize(spans []span) budget {
	b := budget{Layer: map[string]float64{}}
	inBudget := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && !s.Replay && s.Budget {
			inBudget[s.Op] = true
		}
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if !inBudget[s.Op] {
			continue
		}
		v := self[s.ID]
		if s.Parent == 0 && !s.Replay {
			b.Ops++
			b.Units += s.calls()
			b.OpNs += s.dur()
			b.RootSelf += v
			continue
		}
		b.Layer[s.Name] += v
	}
	// A replay is a second run of the work, so on one op it may cost more
	// or less than the call it explains; only a layer whose replays
	// over-explain it over all ops counts against the budget.
	for _, v := range b.Layer {
		if v < 0 {
			b.Negative += -v
		}
	}
	if b.RootSelf < 0 {
		b.Negative += -b.RootSelf
		b.RootSelf = 0
	}
	return b
}

// spanStats answers the per-layer questions a workload asks of its own
// trace: how long did calls named so take, alone and in total.
type spanStats struct {
	spans []span
	self  map[int]float64
}

func newSpanStats(spans []span) spanStats {
	return spanStats{spans: spans, self: selfTimes(spans)}
}

// sum adds up every span called name: durations, self times, calls.
func (st spanStats) sum(name string) (dur, self float64, calls int) {
	for _, s := range st.spans {
		if s.Name == name {
			dur += s.dur()
			self += st.self[s.ID]
			calls += s.calls()
		}
	}
	return dur, self, calls
}

// perCall is the mean duration of one call under name, in nanoseconds.
func (st spanStats) perCall(name string) float64 {
	dur, _, calls := st.sum(name)
	return dur / float64(max(calls, 1))
}

// selfPerCall is perCall on self time.
func (st spanStats) selfPerCall(name string) float64 {
	_, self, calls := st.sum(name)
	return self / float64(max(calls, 1))
}

// selfTotal is the summed self time of every span called name.
func (st spanStats) selfTotal(name string) float64 {
	_, self, _ := st.sum(name)
	return self
}

// spanCost measures what one begin/end pair costs on this box, so the
// traced run can say what share of its time the tracer itself took.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", 0, i))
	}
	return time.Since(start) / n
}

// budgetRow is one line of the printed budget: a simulated wait, or the
// self time of every span called Span.
type budgetRow struct {
	Label string
	Span  string  // empty for a simulated row
	SimS  float64 // simulated seconds per op (simulated rows)
}

// printBudget writes the table whose wall rows must add up to the op.
func printBudget(w io.Writer, title string, b budget, rows []budgetRow) {
	if b.Ops == 0 {
		return
	}
	units := float64(max(b.Units, 1))
	fmt.Fprintf(w, "\nbudget: %s (%d traced ops in %d spans, per op)\n", title, b.Units, b.Ops)
	fmt.Fprintf(w, "  %-34s %12s %12s %7s\n", "layer", "sim s", "wall ms", "share")
	used := map[string]bool{}
	var simTotal float64
	for _, r := range rows {
		if r.Span == "" {
			simTotal += r.SimS
			fmt.Fprintf(w, "  %-34s %12.3f %12s %7s\n", r.Label+" (sim)", r.SimS, "", "")
			continue
		}
		used[r.Span] = true
		v := b.Layer[r.Span]
		fmt.Fprintf(w, "  %-34s %12s %12.4f %6.1f%%\n", r.Label, "", v/units/1e6, 100*v/b.OpNs)
	}
	var rest []string
	for name := range b.Layer {
		if !used[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		v := b.Layer[name]
		fmt.Fprintf(w, "  %-34s %12s %12.4f %6.1f%%\n", name, "", v/units/1e6, 100*v/b.OpNs)
	}
	fmt.Fprintf(w, "  %-34s %12s %12.4f %6.1f%%\n", "unattributed (harness glue)", "", b.RootSelf/units/1e6, 100*b.RootSelf/b.OpNs)
	if b.Negative > 0 {
		fmt.Fprintf(w, "  %-34s %12s %12.4f %6.1f%%\n", "over-attributed by replays", "", b.Negative/units/1e6, 100*b.Negative/b.OpNs)
	}
	fmt.Fprintf(w, "  %-34s %12.3f %12.4f %6.1f%%\n", "total", simTotal, b.OpNs/units/1e6, 100.0)
	fmt.Fprintf(w, "  residual %.2f%% of wall (limit %.0f%%)\n", 100*b.residualShare(), 100*maxResidualShare)
}

// maxResidualShare is how much of an op's wall time may go unexplained
// on the workloads that print a budget.
const maxResidualShare = 0.10

// traceFile is what -trace writes next to the numbers.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Host     host   `json:"host"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
