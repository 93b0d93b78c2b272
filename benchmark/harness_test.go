package main

import (
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// shortSizes is a run of every workload small enough for `go test`:
// the same code paths as the frozen sizes, a handful of ops each.
var shortSizes = sizes{
	CorpusPages:    6,
	WarmUp:         false,
	RoundtripPages: 1,
	FleetTowers:    2,
	FleetPages:     2,
	ChurnHours:     1,
	StormUsers:     2000,
	StormTowers:    4,
	Listeners:      500,
}

func TestSelfTimes(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * 1e6) }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		// siblings, back to back, with a gap the parent keeps
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(70)},
		// nested inside b
		{ID: 4, Parent: 3, Name: "b.inner", Start: ms(40), End: ms(50)},
		// zero-length
		{ID: 5, Parent: 1, Name: "z", Start: ms(80), End: ms(80)},
		// overlapping siblings under a (two workers): the union counts once
		{ID: 6, Parent: 2, Name: "w1", Start: ms(10), End: ms(20)},
		{ID: 7, Parent: 2, Name: "w2", Start: ms(15), End: ms(25)},
		// a replay of work hidden in b.inner: 2 ms, three times
		{ID: 8, Parent: 4, Name: "hidden", Start: ms(200), End: ms(202), Replay: true, Times: 3},
	}
	self := selfTimes(spans)
	want := map[int]float64{
		1: 40e6, // 100 - (20 + 40 + 0)
		2: 5e6,  // 20 - union(10..25)
		3: 30e6, // 40 - 10
		4: 4e6,  // 10 - 3*2
		5: 0,
		6: 10e6,
		7: 10e6,
		8: 6e6, // a replay's self time is all its repetitions
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times\n got %v\nwant %v", self, want)
	}
}

func TestBudgetAddsUp(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 0, Name: "op", Start: 0, End: 1000, Budget: true},
		{ID: 2, Parent: 1, Op: 0, Name: "x.composite", Start: 100, End: 900},
		{ID: 3, Parent: 2, Op: 0, Name: "y.stage", Start: 5000, End: 5600, Replay: true, Times: 1},
		// an op that is not fully traced stays out of the budget
		{ID: 4, Op: 1, Name: "op", Start: 2000, End: 4000},
		{ID: 5, Parent: 4, Op: 1, Name: "x.composite", Start: 2000, End: 3000},
	}
	b := summarize(spans)
	if b.Ops != 1 || b.OpNs != 1000 {
		t.Fatalf("budget ops %d over %v ns, want 1 over 1000", b.Ops, b.OpNs)
	}
	if b.Layer["x.composite"] != 200 || b.Layer["y.stage"] != 600 || b.RootSelf != 200 {
		t.Fatalf("layers %v root %v", b.Layer, b.RootSelf)
	}
	if sum := b.Layer["x.composite"] + b.Layer["y.stage"] + b.RootSelf; sum != b.OpNs {
		t.Fatalf("self times sum to %v, op took %v", sum, b.OpNs)
	}
	if got := b.residualShare(); got != 0.2 {
		t.Fatalf("residual %v, want 0.2", got)
	}
	// a replay that costs more than the call it explains is residual too
	spans[2].End = 6000 // 1000 ns of replay inside an 800 ns call
	if got := summarize(spans).residualShare(); got != 0.4 {
		t.Fatalf("over-explained residual %v, want 0.4 (200 glue + 200 over)", got)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{8, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {400000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if quantile(s, 0.5) != 5 || quantile(s, 0.99) != 10 || quantile(s, 0) != 1 || quantile(nil, 0.5) != 0 {
		t.Errorf("nearest-rank quantiles off: p50=%v p99=%v p0=%v", quantile(s, 0.5), quantile(s, 0.99), quantile(s, 0))
	}
}

// The driver judges spread with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of three: %v %v, Python gives 1 3", q1, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Fatalf("spread %v, want (8.25-2.75)/5.5", got)
	}
	if worseBy("lower", 100, 110) != 0.1 || worseBy("higher", 100, 90) != 0.1 || worseBy("higher", 100, 110) >= 0 {
		t.Fatal("worseBy has the direction wrong")
	}
}

func TestStratifiedDraw(t *testing.T) {
	sizes := make([]int, 100)
	for i := range sizes {
		sizes[i] = 80000 + 1200*((i*37)%100)
	}
	a := stratified(rand.New(rand.NewSource(7)), sizes, 8)
	b := stratified(rand.New(rand.NewSource(7)), sizes, 8)
	c := stratified(rand.New(rand.NewSource(8)), sizes, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("one seed, two draws: %v %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatalf("two seeds, one draw: %v", a)
	}
	// one page from each size class: the draw's mean stays near the corpus mean
	var sum float64
	seen := map[int]bool{}
	for _, i := range a {
		sum += float64(sizes[i])
		rank := (sizes[i] - 80000) / 1200 // sizes are a permutation of 100 ranks
		for s := 0; s < 8; s++ {
			if rank >= s*100/8 && rank < (s+1)*100/8 {
				seen[s] = true
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("draw %v covers %d of 8 size classes", a, len(seen))
	}
	if m := sum / 8; math.Abs(m-139400) > 0.05*139400 {
		t.Fatalf("draw mean %v is more than 5%% from the corpus mean 139400", m)
	}
}

func TestMiddlingDraw(t *testing.T) {
	sizes := make([]int, 100)
	for i := range sizes {
		sizes[i] = 80000 + 1200*((i*37)%100) // a permutation of 100 size ranks
	}
	a := middling(rand.New(rand.NewSource(7)), sizes, 12)
	b := middling(rand.New(rand.NewSource(7)), sizes, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("one seed, two draws: %v %v", a, b)
	}
	draws := map[[12]int]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		d := middling(rand.New(rand.NewSource(seed)), sizes, 12)
		seen := map[int]bool{}
		for _, i := range d {
			seen[i] = true
			// the sixteen pages nearest the median are ranks 42 to 57
			if rank := (sizes[i] - 80000) / 1200; rank < 42 || rank > 57 {
				t.Fatalf("seed %d drew a page of size rank %d", seed, rank)
			}
		}
		if len(d) != 12 || len(seen) != 12 {
			t.Fatalf("seed %d drew %v, want twelve distinct pages", seed, d)
		}
		draws[[12]int(d)] = true
	}
	if len(draws) != 20 {
		t.Fatalf("20 seeds made only %d different draws", len(draws))
	}
	// more pages than the band: the band widens; more than the corpus: all of it
	if d := middling(rand.New(rand.NewSource(1)), sizes, 20); len(d) != 20 {
		t.Fatalf("twenty wanted: drew %v", d)
	}
	if d := middling(rand.New(rand.NewSource(1)), sizes[:2], 3); len(d) != 2 {
		t.Fatalf("two pages, three wanted: drew %v", d)
	}
}

// Ops timed one by one report the median op's CPU; a run timed as one
// interval can only divide.
func TestCPUPerOp(t *testing.T) {
	rep := &report{ops: 4, attempted: 4}
	rep.m.wall, rep.m.cpu = 8*time.Second, 10*time.Second
	if got := rep.endToEndMetrics()["cpu_s_per_op"]; got != 2.5 {
		t.Fatalf("one interval: cpu_s_per_op %v, want 10 s over 4 ops", got)
	}
	rep.opCPUs = []float64{2, 2.5, 2.25, 3.75}
	if got := rep.endToEndMetrics()["cpu_s_per_op"]; got != 2.375 {
		t.Fatalf("op by op: cpu_s_per_op %v, want the median 2.375", got)
	}
}

// Three towers, by hand: who waits how long for what.
func TestOnAirBookExactQuantiles(t *testing.T) {
	sec := func(s float64) int64 { return int64(s * 1e9) }
	book := newOnAirBook(3, 2)
	// tower 0: two requests for page 0 coalesce onto one airing at t=100
	book.accept(0, 0, sec(10))
	book.accept(0, 0, sec(40))
	// tower 1: page 1 asked at t=5 airs at once (the tower was idle since
	// t=4, before the request existed: the wait is airtime alone)
	book.accept(1, 1, sec(5))
	// tower 2: one request aired late, one never aired
	book.accept(2, 0, sec(0))
	book.accept(2, 1, sec(0))

	var waits []float64
	if n := book.air(0, 0, sec(100), 50, &waits); n != 2 {
		t.Fatalf("tower 0 aired %d requests, want 2", n)
	}
	book.air(1, 1, sec(4), 20, &waits)
	book.air(2, 0, sec(3000), 100, &waits)
	if n := book.air(2, 0, sec(3200), 100, &waits); n != 0 {
		t.Fatalf("a second airing found %d requests still waiting", n)
	}
	// waits: 100-10+50=140, 100-40+50=110, 0+20=20, 3000+100=3100
	rep := &report{onAirS: waits, unserved: book.waiting(), attempted: 5}
	if book.waiting() != 1 {
		t.Fatalf("%d requests still waiting, want 1", book.waiting())
	}
	got := rep.endToEndMetrics()
	if got["on_air_p50_s"] != 110 {
		t.Errorf("p50 %v, want 110 (nearest rank of 20,110,140,3100)", got["on_air_p50_s"])
	}
	if got["on_air_p99_s"] != 110 {
		t.Errorf("tail %v: four samples support no tail, want the median", got["on_air_p99_s"])
	}
	if got["on_air_slo_share"] != 3.0/5 {
		t.Errorf("slo share %v, want 3 of 5 (one late, one never aired)", got["on_air_slo_share"])
	}
	if book.queueWaitNs != sec(90+60+0+3000) {
		t.Errorf("queue wait %v ns", book.queueWaitNs)
	}
}

func TestListenerWaits(t *testing.T) {
	// page 0 airs at 0-10 and 100-110, page 1 at 10-40
	log := []airing{{0, 0, 10}, {1, 10, 40}, {0, 100, 110}}
	waits, unserved := listenerWaits(rand.New(rand.NewSource(1)), log, []float64{1, 1}, 100, 4000)
	if len(waits)+unserved != 4000 {
		t.Fatalf("%d waits + %d unserved", len(waits), unserved)
	}
	for _, w := range waits {
		// the longest wait: arrive just after 0, want page 0, next start is 100
		if w <= 0 || w > 110 {
			t.Fatalf("wait %v outside (0, 110]", w)
		}
	}
	// page 1 starts once, at 10: its listeners arriving later go unserved,
	// 0.5 * 0.9 of the audience
	if share := float64(unserved) / 4000; math.Abs(share-0.45) > 0.03 {
		t.Fatalf("unserved share %v, want about 0.45", share)
	}
}

func TestManifestMatchesSpec(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, spec %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.Name || man.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q, spec %q", i, man.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(man.EndToEnd) != len(endToEnd) || len(man.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d+%d metrics, spec %d+%d", len(man.EndToEnd), len(man.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		e := man.EndToEnd[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better {
			t.Errorf("end-to-end %d: manifest %+v, spec %+v", i, e, m)
		}
		if e.Bound <= 0 || e.Bound > 0.25 || e.Bound > man.bound("setup_s") {
			t.Errorf("%s: bound %v (must be in (0, 0.25], setup_s the largest)", e.Name, e.Bound)
		}
	}
	for i, m := range perLayer {
		e := man.PerLayer[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better {
			t.Errorf("per-layer %d: manifest %+v, spec %+v", i, e, m)
		}
	}
}

// runShort runs one workload at shortSizes.
func runShort(t *testing.T, name string, seed int64, traced bool) (*report, *env) {
	t.Helper()
	e := &env{seed: seed, sz: shortSizes, start: time.Now()}
	if traced {
		e.tr = newTracer()
	}
	rep, err := findWorkload(name).run(e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep, e
}

func TestSeedFixesInputs(t *testing.T) {
	for _, name := range []string{"churn_day", "sms_storm"} {
		a, _ := runShort(t, name, 1, false)
		b, _ := runShort(t, name, 1, false)
		c, _ := runShort(t, name, 2, false)
		if a.inputDigest != b.inputDigest {
			t.Errorf("%s: seed 1 generated %s then %s", name, a.inputDigest, b.inputDigest)
		}
		if a.inputDigest == c.inputDigest {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs (%s)", name, a.inputDigest)
		}
		// and the simulated clock repeats to the bit
		am, bm := a.endToEndMetrics(), b.endToEndMetrics()
		for _, m := range endToEnd {
			if m.exact() && am[m.Name] != bm[m.Name] {
				t.Errorf("%s: %s read %v then %v on one seed", name, m.Name, am[m.Name], bm[m.Name])
			}
		}
	}
}

// Every workload, traced, end to end: outputs verify, every metric is
// there, and the budget closes where the harness says it must.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		rep, e := runShort(t, wl.Name, 3, true)
		res := finish(io.Discard, &wl, rep, e, hostRecord(), spanCost(), t.TempDir())
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d: %v", wl.Name, res.Correct, res.Failed, rep.failures)
		}
		if rep.ops == 0 || rep.attempted == 0 {
			t.Errorf("%s: %d ops of %d attempted", wl.Name, rep.ops, rep.attempted)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: traced result lacks %s", wl.Name, m.Name)
			}
		}
		e2e := rep.endToEndMetrics()
		for _, m := range endToEnd {
			if v := e2e[m.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, must be a positive number", wl.Name, m.Name, v)
			}
		}
	}
}
