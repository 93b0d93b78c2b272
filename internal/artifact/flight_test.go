package artifact

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sonic/internal/core"
)

// The chain's table holds an entry from its first caller's lookup until
// its computation finishes. These tests hold a computation open on a
// gate, let callers pile onto it, and check what each of them gets.

// waitForWaiters blocks until n goroutines wait on a flight, so a test
// can finish the flight knowing they joined it rather than hitting the
// published entry afterwards.
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			// A goroutine's header line, then its innermost frame.
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) > 1 && strings.Contains(lines[0], "[chan receive") &&
				strings.HasPrefix(lines[1], "sonic/internal/artifact.(*Chain).stage(") {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers are waiting on the flight", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedRender returns a render that signals started, then blocks until
// gate closes and returns what result returns.
func gatedRender(started chan<- struct{}, gate <-chan struct{}, result func() (core.Bundle, error)) RenderFunc {
	return func() (core.Bundle, error) {
		close(started)
		<-gate
		return result()
	}
}

// joinFlight starts n callers of k's render stage that must not compute,
// and returns a wait for their results.
func joinFlight(t *testing.T, ch *Chain, k Key, n int) func() ([]core.Bundle, []error) {
	t.Helper()
	got := make([]core.Bundle, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = ch.Render(k, func() (core.Bundle, error) {
				t.Error("a caller computed while the flight was open")
				return core.Bundle{}, nil
			})
		}(i)
	}
	waitForWaiters(t, n)
	return func() ([]core.Bundle, []error) {
		wg.Wait()
		return got, errs
	}
}

// TestChainFlightCoalesces: callers that find a computation in flight
// wait for it and share its value; the stage counts one miss and the
// rest as coalesced.
func TestChainFlightCoalesces(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	k := ch.Key("herd.pk/", 0, 1)
	started, gate := make(chan struct{}), make(chan struct{})
	var lead core.Bundle
	var leadErr error
	leader := make(chan struct{})
	go func() {
		defer close(leader)
		lead, leadErr = ch.Render(k, gatedRender(started, gate, func() (core.Bundle, error) { return testBundle(1, 500), nil }))
	}()
	<-started
	const followers = 31
	wait := joinFlight(t, ch, k, followers)
	close(gate)
	<-leader
	got, errs := wait()
	if leadErr != nil {
		t.Fatal(leadErr)
	}
	for i := range got {
		if errs[i] != nil || &got[i].Image[0] != &lead.Image[0] {
			t.Fatalf("caller %d: err %v, or a private bundle", i, errs[i])
		}
	}
	if st := ch.Stats().Render; st != (StageStats{Misses: 1, Coalesced: followers}) {
		t.Fatalf("render stage = %+v, want 1 miss and %d coalesced", st, followers)
	}
}

// TestChainFlightDistinctKeys: a computation in flight holds up only its
// own key; another key computes and publishes beside it.
func TestChainFlightDistinctKeys(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	a, b := ch.Key("a.pk/", 0, 1), ch.Key("b.pk/", 0, 2)
	started, gate := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := ch.Render(a, gatedRender(started, gate, func() (core.Bundle, error) { return testBundle(1, 500), nil }))
		leader <- err
	}()
	<-started
	got, err := ch.Render(b, func() (core.Bundle, error) { return testBundle(2, 300), nil })
	if err != nil || len(got.Image) != 300 {
		t.Fatalf("b beside a's flight: %d image bytes, err %v", len(got.Image), err)
	}
	if !hit(ch, b, StageRender) || hit(ch, a, StageRender) {
		t.Fatal("b should be cached while a is still in flight")
	}
	close(gate)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if st := ch.Stats(); st.Render.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after both flights: %+v, want 2 misses and 2 entries", st)
	}
}

// failedFlight holds a computation of k that fails with boom open while
// n callers join it, then returns the computing caller's error and theirs.
func failedFlight(t *testing.T, ch *Chain, k Key, boom error, n int) (error, []error) {
	t.Helper()
	started, gate := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := ch.Render(k, gatedRender(started, gate, func() (core.Bundle, error) { return core.Bundle{}, boom }))
		leader <- err
	}()
	<-started
	wait := joinFlight(t, ch, k, n)
	close(gate)
	leadErr := <-leader
	_, errs := wait()
	return leadErr, errs
}

// TestChainFlightSharesError: a failed computation hands its error to
// every caller waiting on it, counts nothing as coalesced, and leaves
// nothing in the table.
func TestChainFlightSharesError(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	k := ch.Key("flaky.pk/", 0, 1)
	boom := errors.New("render down")
	leadErr, errs := failedFlight(t, ch, k, boom, 8)
	if !errors.Is(leadErr, boom) {
		t.Fatalf("leader err = %v, want %v", leadErr, boom)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want the leader's %v", i, err, boom)
		}
	}
	if st := ch.Stats(); st.Render != (StageStats{}) || st.Entries != 0 || len(ch.entries) != 0 {
		t.Fatalf("after a failed flight: %+v, %d table entries; want nothing counted or kept", st, len(ch.entries))
	}
}

// TestChainFlightFailureDoesNotPoison: after a failed flight that had
// callers waiting on it, the next caller computes again and succeeds.
func TestChainFlightFailureDoesNotPoison(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	k := ch.Key("flaky.pk/", 0, 1)
	boom := errors.New("transient failure")
	if leadErr, _ := failedFlight(t, ch, k, boom, 4); !errors.Is(leadErr, boom) {
		t.Fatalf("first flight: err = %v, want %v", leadErr, boom)
	}
	b, err := ch.Render(k, func() (core.Bundle, error) { return testBundle(3, 300), nil })
	if err != nil || len(b.Image) != 300 {
		t.Fatalf("the failed flight poisoned the key: %d image bytes, err %v", len(b.Image), err)
	}
	if st := ch.Stats().Render; st != (StageStats{Misses: 1}) {
		t.Fatalf("render stage = %+v, want the one successful miss", st)
	}
}

// TestChainFlightForgetsFailedKey: a flight leaves the table when its
// computation returns. Sequential failing calls each compute, and each
// finds the key absent; the first success computes once more and then
// serves from the cache.
func TestChainFlightForgetsFailedKey(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	k := ch.Key("flaky.pk/", 0, 1)
	boom := errors.New("render down")
	runs := 0
	for i := 0; i < 3; i++ {
		if _, err := ch.Render(k, func() (core.Bundle, error) { runs++; return core.Bundle{}, boom }); !errors.Is(err, boom) {
			t.Fatalf("sequential call %d: err = %v, want %v", i, err, boom)
		}
		if len(ch.entries) != 0 {
			t.Fatalf("sequential call %d left %d table entries, want 0", i, len(ch.entries))
		}
	}
	if runs != 3 {
		t.Fatalf("failing render ran %d times, want 3", runs)
	}
	for i := 0; i < 2; i++ {
		if _, err := ch.Render(k, func() (core.Bundle, error) { runs++; return testBundle(3, 300), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 4 {
		t.Fatalf("render ran %d times, want 4: three failures, then one success cached", runs)
	}
	if st := ch.Stats().Render; st != (StageStats{Hits: 1, Misses: 1}) {
		t.Fatalf("render stage = %+v, want 1 miss then 1 hit", st)
	}
}

// TestChainFlightLeaderPanic: a computation that panics fails its
// waiters instead of stranding them, the panic goes on up the computing
// caller's stack, and the next caller computes again.
func TestChainFlightLeaderPanic(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	k := ch.Key("panic.pk/", 0, 1)
	started, gate := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		ch.Render(k, gatedRender(started, gate, func() (core.Bundle, error) { panic("boom") }))
	}()
	<-started
	wait := joinFlight(t, ch, k, 8)
	close(gate)
	if r := <-recovered; r != "boom" {
		t.Fatalf("leader recovered %v, want its own panic", r)
	}
	_, errs := wait()
	for i, err := range errs {
		if !errors.Is(err, errPanicked) {
			t.Fatalf("caller %d: err = %v, want %v", i, err, errPanicked)
		}
	}
	if len(ch.entries) != 0 {
		t.Fatalf("%d table entries after the panic, want 0", len(ch.entries))
	}
	b, err := ch.Render(k, func() (core.Bundle, error) { return testBundle(4, 300), nil })
	if err != nil || len(b.Image) != 300 {
		t.Fatalf("after the panic: %d image bytes, err %v", len(b.Image), err)
	}
}

// TestChainFlightSurvivesForgetAndFlush: Forget and Flush drop cached
// entries only; a computation in flight stays in the table, its waiters
// still join it, and it publishes when it finishes.
func TestChainFlightSurvivesForgetAndFlush(t *testing.T) {
	ch, _ := newTestChain(t, 0)
	k := ch.Key("f.pk/", 0, 1)
	started, gate := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := ch.Render(k, gatedRender(started, gate, func() (core.Bundle, error) { return testBundle(5, 300), nil }))
		leader <- err
	}()
	<-started
	ch.Forget(k)
	ch.Flush()
	ch.mu.Lock()
	e := ch.entries[ckey{key: k, stage: StageRender}]
	ch.mu.Unlock()
	if e == nil {
		t.Fatal("Forget or Flush dropped a computation in flight")
	}
	wait := joinFlight(t, ch, k, 4)
	close(gate)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if _, errs := wait(); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	if !hit(ch, k, StageRender) || ch.Stats().Entries != 1 {
		t.Fatalf("the flight did not publish: %+v", ch.Stats())
	}
}
