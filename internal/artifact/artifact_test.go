package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sonic/internal/core"
	"sonic/internal/frame"
	"sonic/internal/telemetry"
)

// testBundle builds a deterministic synthetic bundle of roughly n image
// bytes — the chain never inspects bundle contents, so artifact tests
// don't need real renders.
func testBundle(seed int64, n int) core.Bundle {
	rng := rand.New(rand.NewSource(seed))
	img := make([]byte, n)
	rng.Read(img)
	cm := []byte(fmt.Sprintf(`{"seed":%d}`, seed))
	return core.Bundle{Image: img, ClickMap: cm}
}

// hit reports whether stage st of k is cached and, as a hit does, marks
// it used.
func hit(ch *Chain, k Key, st Stage) bool {
	ch.mu.Lock()
	e, ok := ch.entries[ckey{key: k, stage: st}]
	ok = ok && e.el != nil
	ch.mu.Unlock()
	if ok {
		e.used.Store(true)
	}
	return ok
}

func newTestChain(t *testing.T, maxBytes int64) (*Chain, *core.Pipeline) {
	t.Helper()
	pipe, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	return NewChain(pipe, maxBytes), pipe
}

// TestChainMatchesSerialPath pins every cached stage byte-identical to
// the serial per-tower path: MarshalBundle for the blob, chunk + FEC
// framing for the coded stream, EncodePageAudio for the audio.
func TestChainMatchesSerialPath(t *testing.T) {
	ch, pipe := newTestChain(t, 0)
	for i := 0; i < 4; i++ {
		b := testBundle(int64(i), 400+137*i)
		k := ch.Key(fmt.Sprintf("page-%d.pk/", i), i%2, uint16(i+1))
		render := func() (core.Bundle, error) { return b, nil }

		blob, err := ch.Blob(k, render)
		if err != nil {
			t.Fatalf("Blob: %v", err)
		}
		if want := core.MarshalBundle(b); !bytes.Equal(blob, want) {
			t.Fatalf("page %d: blob differs from MarshalBundle", i)
		}

		stream, err := ch.Stream(k, render)
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		want, err := pipe.Codec().EncodeStream(frame.Chunk(k.PageID, core.MarshalBundle(b)))
		if err != nil {
			t.Fatalf("EncodeStream: %v", err)
		}
		if !bytes.Equal(stream, want) {
			t.Fatalf("page %d: stream differs from the serial chunk + FEC framing", i)
		}

		audio, err := ch.Audio(k, render)
		if err != nil {
			t.Fatalf("Audio: %v", err)
		}
		wantAudio, err := pipe.EncodePageAudio(k.PageID, b)
		if err != nil {
			t.Fatalf("EncodePageAudio: %v", err)
		}
		if len(audio) != len(wantAudio) {
			t.Fatalf("page %d: audio length %d != %d", i, len(audio), len(wantAudio))
		}
		for j := range audio {
			if audio[j] != wantAudio[j] {
				t.Fatalf("page %d: audio sample %d differs", i, j)
			}
		}
	}
}

// TestWiredBundleCountedOnce pins the byte accounting of a page marshaled
// at render (core.NewBundle): its blob is a view of the render entry's
// wire form, so render + blob weigh that wire form once. A plain bundle
// marshals to a copy, and both arrays count.
func TestWiredBundleCountedOnce(t *testing.T) {
	plain := testBundle(4, 1500)
	wire := core.MarshalBundle(plain)
	for _, tc := range []struct {
		name string
		b    core.Bundle
		want int
	}{
		{"wired", core.NewBundle(plain.Image, plain.ClickMap), len(wire)},
		{"plain", plain, 2 * len(wire)},
	} {
		ch, _ := newTestChain(t, 0)
		blob, err := ch.Blob(ch.Key("w.pk/", 0, 1), func() (core.Bundle, error) { return tc.b, nil })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, wire) {
			t.Fatalf("%s: blob differs from MarshalBundle", tc.name)
		}
		if got := ch.Stats().Bytes; got != int64(tc.want) {
			t.Errorf("%s: render + blob weigh %d bytes, want %d", tc.name, got, tc.want)
		}
	}
}

// TestChainFleetDedup runs a 32-tower herd at one key concurrently and
// requires exactly one computation per stage fleet-wide, everyone
// receiving the identical shared PCM. Run under -race.
func TestChainFleetDedup(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	b := testBundle(7, 2000)
	var renders atomic.Int64
	render := func() (core.Bundle, error) {
		renders.Add(1)
		return b, nil
	}
	k := ch.Key("hot.pk/", 3, 42)

	const towers = 32
	results := make([][]int16, towers)
	var wg sync.WaitGroup
	for i := 0; i < towers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pcm, err := ch.PCM(k, render)
			if err != nil {
				t.Errorf("tower %d: %v", i, err)
				return
			}
			results[i] = pcm
		}(i)
	}
	wg.Wait()

	if n := renders.Load(); n != 1 {
		t.Fatalf("fleet rendered %d times, want 1", n)
	}
	st := ch.Stats()
	for name, s := range map[string]StageStats{"blob": st.Blob, "stream": st.Stream, "audio": st.Audio} {
		if s.Misses != 1 {
			t.Fatalf("stage %s: %d computations, want 1 (stats %+v)", name, s.Misses, s)
		}
		if s.Hits+s.Coalesced+s.Misses != towers && name == "audio" {
			t.Fatalf("stage %s: %d+%d+%d accounted, want %d", name, s.Hits, s.Coalesced, s.Misses, towers)
		}
	}
	for i := 1; i < towers; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("tower %d received a private PCM copy; artifacts must be shared", i)
		}
	}
	if d := st.Dedup(); d <= 1 {
		t.Fatalf("dedup factor %.2f, want > 1", d)
	}
}

// TestChainByteCapSecondChance pins the memory contract: cached bytes
// never exceed the cap, eviction counts are reported, and an evicted
// artifact is recomputed (not lost) on the next request.
func TestChainByteCapSecondChance(t *testing.T) {
	// Blob-only workload with ~1 KB artifacts and a cap that holds ~4.
	const cap = 4500
	ch, _ := newTestChain(t, cap)
	var computes atomic.Int64
	get := func(i int) []byte {
		k := ch.Key(fmt.Sprintf("p%02d.pk/", i), 0, uint16(i+1))
		blob, err := ch.Blob(k, func() (core.Bundle, error) {
			computes.Add(1)
			return testBundle(int64(i), 1000), nil
		})
		if err != nil {
			t.Fatalf("Blob(%d): %v", i, err)
		}
		return blob
	}
	for i := 0; i < 12; i++ {
		get(i)
		if b := ch.Stats().Bytes; b > cap {
			t.Fatalf("after insert %d: %d cached bytes exceed cap %d", i, b, cap)
		}
	}
	st := ch.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under byte pressure (stats %+v)", st)
	}
	if st.Bytes > cap {
		t.Fatalf("stats report %d bytes over cap %d", st.Bytes, cap)
	}
	// Key 0 rotated out long ago; asking again must recompute, and the
	// recomputed blob must be byte-identical.
	before := computes.Load()
	blob := get(0)
	if computes.Load() != before+1 {
		t.Fatalf("evicted artifact was not recomputed")
	}
	if want := core.MarshalBundle(testBundle(0, 1000)); !bytes.Equal(blob, want) {
		t.Fatalf("recomputed blob differs")
	}
}

// TestChainSecondChanceKeepsHotEntry exercises the clock sweep: once an
// eviction wave has cleared the insert-time used bits, an entry touched
// again (a tower re-airing it) earns a second chance and survives the
// next wave, while its untouched sibling is the victim.
func TestChainSecondChanceKeepsHotEntry(t *testing.T) {
	compute := func(i int) RenderFunc {
		return func() (core.Bundle, error) { return testBundle(int64(i), 1000), nil }
	}
	// Learn the exact per-entry byte cost, then size the cap to hold
	// three entries (all seeds are single-digit, so all bundles match).
	// The render stage keeps it to one entry per key.
	probe, pipe := newTestChain(t, 0)
	if _, err := probe.Render(probe.Key("probe.pk/", 0, 1), compute(1)); err != nil {
		t.Fatal(err)
	}
	size := probe.Stats().Bytes
	ch := NewChain(pipe, 3*size+size/2)

	put := func(i int) Key {
		k := ch.Key(fmt.Sprintf("k%d.pk/", i), 0, uint16(i))
		if _, err := ch.Render(k, compute(i)); err != nil {
			t.Fatal(err)
		}
		return k
	}
	put(1) // A
	b := put(2)
	c := put(3)
	// D overflows: the sweep clears every used bit, laps, and evicts A.
	put(4)
	if ch.Stats().Entries != 3 || ch.Stats().Evictions != 1 {
		t.Fatalf("after first wave: %d entries, %d evictions (want 3, 1)", ch.Stats().Entries, ch.Stats().Evictions)
	}
	// Re-air B: its used bit is set again. C stays cold.
	if !hit(ch, b, StageRender) {
		t.Fatalf("B missing before second wave")
	}
	// E overflows again: the hand passes B (second chance), evicts C.
	put(5)
	misses := ch.Stats().Render.Misses
	put(2) // B must still be cached…
	if got := ch.Stats().Render.Misses; got != misses {
		t.Fatalf("touched entry was evicted despite its second chance (misses %d -> %d)", misses, got)
	}
	if hit(ch, c, StageRender) {
		t.Fatalf("cold entry C survived the wave that should have taken it")
	}
}

// TestChainErrorNotCached pins that a failed render poisons nothing: the
// error propagates to every coalesced caller of that flight, and the
// next request computes fresh.
func TestChainErrorNotCached(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	k := ch.Key("flaky.pk/", 0, 9)
	boom := errors.New("render down")
	calls := 0
	if _, err := ch.Audio(k, func() (core.Bundle, error) {
		calls++
		return core.Bundle{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	audio, err := ch.Audio(k, func() (core.Bundle, error) {
		calls++
		return testBundle(1, 300), nil
	})
	if err != nil || len(audio) == 0 {
		t.Fatalf("recovery render failed: %v", err)
	}
	if calls != 2 {
		t.Fatalf("render called %d times, want 2", calls)
	}
}

// TestRenderStageHerd pins stage 0's coalescing: a 32-goroutine herd
// on one cold key runs the render once, and everyone shares the one
// cached bundle. Run under -race.
func TestRenderStageHerd(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	k := ch.Key("herd.pk/", 1, 3)
	var computes atomic.Int64
	const herd = 32
	got := make([]core.Bundle, herd)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < herd; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			b, err := ch.Render(k, func() (core.Bundle, error) {
				computes.Add(1)
				return testBundle(5, 800), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = b
		}(i)
	}
	start.Done()
	done.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("herd rendered %d times, want 1", n)
	}
	st := ch.Stats().Render
	if st.Misses != 1 || st.Hits+st.Coalesced != herd-1 {
		t.Fatalf("render stage = %+v, want 1 miss and %d hits+coalesced", st, herd-1)
	}
	for i := 1; i < herd; i++ {
		if &got[i].Image[0] != &got[0].Image[0] {
			t.Fatalf("caller %d received a private bundle; renders must be shared", i)
		}
	}
}

// TestRenderStageEvictionAndErrors pins the rest of stage 0's contract:
// a bundle the byte cap evicted is rendered again, byte-identical, and a
// render that failed is not cached — the next ask renders afresh.
func TestRenderStageEvictionAndErrors(t *testing.T) {
	const cap = 4500 // holds ~4 of the ~1 KB bundles
	ch, _ := newTestChain(t, cap)
	var computes int
	get := func(i int) core.Bundle {
		b, err := ch.Render(ch.Key(fmt.Sprintf("p%02d.pk/", i), 0, uint16(i+1)), func() (core.Bundle, error) {
			computes++
			return testBundle(int64(i), 1000), nil
		})
		if err != nil {
			t.Fatalf("Render(%d): %v", i, err)
		}
		return b
	}
	first := get(0)
	for i := 1; i < 12; i++ {
		get(i)
		if b := ch.Stats().Bytes; b > cap {
			t.Fatalf("after insert %d: %d cached bytes exceed cap %d", i, b, cap)
		}
	}
	if ch.Stats().Evictions == 0 {
		t.Fatal("no evictions under byte pressure")
	}
	before := computes
	again := get(0)
	if computes != before+1 {
		t.Fatal("evicted bundle was not rendered again")
	}
	if !bytes.Equal(again.Image, first.Image) || !bytes.Equal(again.ClickMap, first.ClickMap) {
		t.Fatal("re-rendered bundle differs")
	}

	k := ch.Key("flaky.pk/", 0, 99)
	boom := errors.New("render down")
	if _, err := ch.Render(k, func() (core.Bundle, error) { return core.Bundle{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	b, err := ch.Render(k, func() (core.Bundle, error) { return testBundle(2, 300), nil })
	if err != nil || len(b.Image) != 300 {
		t.Fatalf("render after a failure: %d image bytes, err %v (the failure was cached)", len(b.Image), err)
	}
}

// TestChainForget pins Forget: every stage of the key goes, nothing else
// does, the byte accounting follows, and the clock hand survives losing
// the entry it points at.
func TestChainForget(t *testing.T) {
	ch, _ := newTestChain(t, -1)
	render := func(seed int64) RenderFunc {
		return func() (core.Bundle, error) { return testBundle(seed, 300), nil }
	}
	old, kept := ch.Key("a.pk/", 1, 1), ch.Key("a.pk/", 2, 1)
	for seed, k := range map[int64]Key{1: old, 2: kept} {
		if _, err := ch.Audio(k, render(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ch.Stats().Entries; got != 2*int(numStages) {
		t.Fatalf("%d entries cached, want %d", got, 2*int(numStages))
	}
	full := ch.Stats().Bytes
	ch.Forget(old)
	st := ch.Stats()
	if st.Entries != int(numStages) || st.Bytes >= full || st.Bytes <= 0 {
		t.Fatalf("after Forget: %d entries, %d of %d bytes", st.Entries, st.Bytes, full)
	}
	for stage := Stage(0); stage < numStages; stage++ {
		if hit(ch, old, stage) {
			t.Fatalf("stage %d of the forgotten key is still cached", stage)
		}
		if !hit(ch, kept, stage) {
			t.Fatalf("stage %d of another epoch went with it", stage)
		}
	}
	ch.Forget(old) // forgetting what is not there is a no-op
	if got := ch.Stats(); got.Entries != st.Entries || got.Bytes != st.Bytes {
		t.Fatalf("second Forget changed the cache: %+v -> %+v", st, got)
	}

	// Park the clock hand on an entry, forget that entry, keep evicting.
	small, _ := newTestChain(t, 3500) // holds three of the ~1 KB bundles
	key := func(i int) Key { return small.Key(fmt.Sprintf("h%d.pk/", i), 0, uint16(i)) }
	put := func(i int) {
		if _, err := small.Render(key(i), func() (core.Bundle, error) { return testBundle(int64(i), 1000), nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 4; i++ { // the 4th insert evicts the 1st; the hand rests on the 2nd
		put(i)
	}
	if small.hand[StageRender] == nil || small.hand[StageRender].Value.(*entry).ck.key != key(2) {
		t.Fatal("the clock hand is not where this test needs it")
	}
	small.Forget(key(2))
	for i := 5; i <= 12; i++ {
		put(i)
		if b := small.Stats().Bytes; b > 3500 {
			t.Fatalf("after insert %d: %d bytes over the cap", i, b)
		}
	}
}

// TestEvictionTakesDerivedFirst pins the eviction order: under byte
// pressure the chain gives up audio before streams before blobs before
// renders, because a later stage is rebuilt from the one before it. A
// burst is two orders of magnitude larger than what it is made from, so
// burst churn must never cost a render.
func TestEvictionTakesDerivedFirst(t *testing.T) {
	const n = 6
	compute := func(i int) RenderFunc {
		return func() (core.Bundle, error) { return testBundle(int64(i), 300), nil }
	}
	// Learn the byte cost of one key's upstream stages, its stream alone
	// and its burst (single-digit seeds: every key weighs the same).
	probe, pipe := newTestChain(t, -1)
	pk := probe.Key("probe.pk/", 0, 1)
	if _, err := probe.Blob(pk, compute(1)); err != nil {
		t.Fatal(err)
	}
	stream := -probe.Stats().Bytes
	if _, err := probe.Stream(pk, compute(1)); err != nil {
		t.Fatal(err)
	}
	upstream := probe.Stats().Bytes
	stream += upstream
	pcm, err := probe.PCM(pk, compute(1))
	if err != nil {
		t.Fatal(err)
	}
	burst := probe.Stats().Bytes - upstream
	if burst != int64(len(pcm)*2) || burst < 10*upstream {
		t.Fatalf("probe: burst %d bytes over %d upstream; the test needs audio to dominate", burst, upstream)
	}
	key := func(ch *Chain, i int) Key { return ch.Key(fmt.Sprintf("k%d.pk/", i), 0, uint16(i)) }

	// Every key's upstream fits beside two and a half bursts: n audio
	// inserts push out n-2 bursts and nothing else.
	limit := n*upstream + 2*burst + burst/2
	ch := NewChain(pipe, limit)
	for i := 1; i <= n; i++ {
		if _, err := ch.PCM(key(ch, i), compute(i)); err != nil {
			t.Fatal(err)
		}
		if b := ch.Stats().Bytes; b > limit {
			t.Fatalf("after audio insert %d: %d cached bytes exceed cap %d", i, b, limit)
		}
	}
	for i := 1; i <= n; i++ {
		for st := StageRender; st < StageAudio; st++ {
			if !hit(ch, key(ch, i), st) {
				t.Errorf("key %d: stage %d was evicted while bursts could still go", i, st)
			}
		}
		if got, want := hit(ch, key(ch, i), StageAudio), i > n-2; got != want {
			t.Errorf("key %d: burst cached = %v, want %v (the two newest stay)", i, got, want)
		}
	}
	if st := ch.Stats(); st.Evictions != n-2 || st.Entries != 3*n+2 {
		t.Fatalf("%d evictions, %d entries; want %d bursts gone and %d entries left", st.Evictions, st.Entries, n-2, 3*n+2)
	}

	// No audio to give: a cap that holds one stream and nothing beside it
	// falls through stream -> blob -> render and still holds.
	limit = stream + 1
	ch = NewChain(pipe, limit)
	for i := 1; i <= n; i++ {
		if _, err := ch.Stream(key(ch, i), compute(i)); err != nil {
			t.Fatal(err)
		}
		if b := ch.Stats().Bytes; b > limit {
			t.Fatalf("after stream insert %d: %d cached bytes exceed cap %d", i, b, limit)
		}
	}
	if st := ch.Stats(); st.Entries != 1 || st.Evictions != 3*n-1 || !hit(ch, key(ch, n), StageStream) {
		t.Fatalf("upstream-only chain: %+v; want the newest stream alone after %d evictions", st, 3*n-1)
	}

	// An artifact larger than the whole cap is returned and not retained.
	ch = NewChain(pipe, burst-1)
	got, err := ch.PCM(key(ch, 1), compute(1))
	if err != nil || int64(len(got)*2) != burst {
		t.Fatalf("oversized burst: %d samples, err %v", len(got), err)
	}
	if hit(ch, key(ch, 1), StageAudio) || ch.Stats().Bytes > burst-1 {
		t.Fatalf("oversized burst was retained: %+v", ch.Stats())
	}
}

// TestAudioStagePCMBytes is the audio stage's memory gate at the size
// the fleet airs (a 483 kB stream, a ~7.6 M-sample burst of n samples).
// StreamPCM allocates the float64 scratch burst (8n), the PCM (2n) and
// the unpacked payload bits (8 per stream byte, under 4 MiB) and no
// second full-size buffer; the cached entry weighs the PCM, 2n bytes.
func TestAudioStagePCMBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what is allocated")
	}
	ch, pipe := newTestChain(t, -1)
	stream := make([]byte, 483_000)
	rand.New(rand.NewSource(9)).Read(stream)
	pipe.StreamPCM(stream[:1000]) // warm the modem's scratch pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pcm := pipe.StreamPCM(stream)
	runtime.ReadMemStats(&after)
	n := uint64(len(pcm))
	if got, limit := after.TotalAlloc-before.TotalAlloc, 8*n+2*n+4<<20; got > limit {
		t.Errorf("StreamPCM of %d stream bytes allocated %d bytes for %d samples, want <= %d", len(stream), got, n, limit)
	}

	k := ch.Key("pcm.pk/", 0, 1)
	render := func() (core.Bundle, error) { return testBundle(9, 2000), nil }
	if _, err := ch.Stream(k, render); err != nil {
		t.Fatal(err)
	}
	upstream := ch.Stats().Bytes
	cached, err := ch.PCM(k, render)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ch.Stats().Bytes-upstream, int64(2*len(cached)); got != want {
		t.Errorf("the cached burst of %d samples weighs %d bytes, want %d", len(cached), got, want)
	}
}

// TestChainKeySeparation pins content addressing: a different effective
// hour, page ID, or pipeline digest is a different artifact.
func TestChainKeySeparation(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	render := func(seed int64) RenderFunc {
		return func() (core.Bundle, error) { return testBundle(seed, 500), nil }
	}
	a, err := ch.Blob(ch.Key("u.pk/", 0, 1), render(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ch.Blob(ch.Key("u.pk/", 1, 1), render(2))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatalf("different effective hours shared one artifact")
	}
	s1, err := ch.Stream(ch.Key("u.pk/", 0, 1), render(1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ch.Stream(ch.Key("u.pk/", 0, 2), render(1))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1, s2) {
		t.Fatalf("different page IDs shared one framed stream")
	}
}

// TestConfigDigest pins the digest contract: the receive-side
// soft-decision knob does not change emitted bytes and is excluded; the
// FEC stack and the modem are included.
func TestConfigDigest(t *testing.T) {
	base := core.DefaultConfig()
	d := base.Digest()
	soft := base
	soft.SoftDecision = true
	if soft.Digest() != d {
		t.Fatalf("SoftDecision (receive-only) changed the digest")
	}
	rs := base
	rs.UseRS = false
	if rs.Digest() == d {
		t.Fatalf("FEC stack did not change the digest")
	}
	m := base
	m.Modem.DataCarriers = 64
	if m.Digest() == d {
		t.Fatalf("modem profile did not change the digest")
	}
}

// TestChainInstrumented checks that Stats() counts one audio miss and one
// hit, and that the byte and entry gauges track the cache Stats() sees.
func TestChainInstrumented(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	reg := telemetry.New()
	ch.Instrument(reg)
	k := ch.Key("m.pk/", 0, 5)
	if _, err := ch.Audio(k, func() (core.Bundle, error) { return testBundle(3, 600), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Audio(k, func() (core.Bundle, error) { return testBundle(3, 600), nil }); err != nil {
		t.Fatal(err)
	}
	st, snap := ch.Stats(), reg.Snapshot()
	if st.Audio.Misses != 1 || st.Audio.Hits != 1 {
		t.Fatalf("audio stats = %+v, want 1 miss and 1 hit", st.Audio)
	}
	if got := snap.Gauges["artifact_cache_bytes"]; got <= 0 || got != float64(st.Bytes) {
		t.Fatalf("byte gauge = %v, want Stats().Bytes = %d", got, st.Bytes)
	}
	if got := snap.Gauges["artifact_cache_entries"]; got != float64(st.Entries) {
		t.Fatalf("entry gauge = %v, want Stats().Entries = %d", got, st.Entries)
	}
}
