package singleflight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCoalesces(t *testing.T) {
	var g Group
	var calls, leaders atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})

	const n = 32
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, leader := g.Do("k", func() (any, error) {
				calls.Add(1)
				close(started)
				<-gate // hold every other caller in the same flight
				return "value", nil
			})
			if err != nil {
				t.Errorf("err = %v", err)
			}
			if leader {
				leaders.Add(1)
			}
			results[i] = v
		}(i)
	}
	<-started
	// Give followers a moment to pile onto the in-flight call.
	time.Sleep(5 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := leaders.Load(); got != 1 {
		t.Errorf("%d leaders, want 1", got)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
}

func TestDoDistinctKeysRunIndependently(t *testing.T) {
	var g Group
	v1, err1, l1 := g.Do("a", func() (any, error) { return 1, nil })
	v2, err2, l2 := g.Do("b", func() (any, error) { return 2, nil })
	if v1 != 1 || v2 != 2 || err1 != nil || err2 != nil || !l1 || !l2 {
		t.Fatalf("got (%v,%v,%v) and (%v,%v,%v)", v1, err1, l1, v2, err2, l2)
	}
}

func TestDoForgetsKeyAfterReturn(t *testing.T) {
	var g Group
	n := 0
	for i := 0; i < 3; i++ {
		_, _, leader := g.Do("k", func() (any, error) { n++; return nil, nil })
		if !leader {
			t.Fatalf("sequential call %d not leader", i)
		}
	}
	if n != 3 {
		t.Errorf("fn ran %d times, want 3 (no caching, only coalescing)", n)
	}
}

func TestDoPropagatesError(t *testing.T) {
	var g Group
	want := errors.New("render failed")
	_, err, leader := g.Do("k", func() (any, error) { return nil, want })
	if err != want || !leader {
		t.Fatalf("err=%v leader=%v", err, leader)
	}
}

// TestFailedFlightDoesNotPoison: a flight that returns an error must
// not taint later callers — the key is forgotten when fn returns, so
// the next Do leads a fresh invocation and can succeed.
func TestFailedFlightDoesNotPoison(t *testing.T) {
	var g Group
	boom := errors.New("transient failure")
	attempts := 0
	fn := func() (any, error) {
		attempts++
		if attempts == 1 {
			return nil, boom
		}
		return "recovered", nil
	}
	if _, err, leader := g.Do("k", fn); err != boom || !leader {
		t.Fatalf("first flight: err=%v leader=%v", err, leader)
	}
	v, err, leader := g.Do("k", fn)
	if err != nil || v != "recovered" || !leader {
		t.Fatalf("second flight poisoned: v=%v err=%v leader=%v", v, err, leader)
	}
}

func TestDoLeaderPanic(t *testing.T) {
	var g Group
	gate := make(chan struct{})
	followerErr := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		g.Do("k", func() (any, error) {
			close(gate)
			time.Sleep(5 * time.Millisecond)
			panic("boom")
		})
	}()
	<-gate
	_, err, leader := g.Do("k", func() (any, error) { return "fresh", nil })
	// Either we joined the panicking flight (ErrLeaderPanicked) or it
	// already unwound and we led a fresh call; both leave the group usable.
	if leader {
		if err != nil {
			t.Fatalf("fresh call err = %v", err)
		}
	} else if !errors.Is(err, ErrLeaderPanicked) {
		t.Fatalf("follower err = %v, want ErrLeaderPanicked", err)
	}
	select {
	case e := <-followerErr:
		t.Fatalf("unexpected follower result %v", e)
	default:
	}
	if _, err, _ := g.Do("k", func() (any, error) { return nil, nil }); err != nil {
		t.Fatalf("group unusable after panic: %v", err)
	}
}
