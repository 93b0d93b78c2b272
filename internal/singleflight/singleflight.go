// Package singleflight coalesces duplicate concurrent calls: when N
// goroutines ask for the same key at once, one runs the function and the
// other N-1 block and share its result. The artifact chain uses it per
// stage to stop the thundering herd — N concurrent cache misses for one
// page must render once, not N times (§3.1: the page comes "from its
// cache, e.g., if recently requested by another user").
//
// It is a minimal stdlib-only take on golang.org/x/sync/singleflight,
// with one deliberate difference: Do reports whether the caller was the
// leader (the goroutine that executed fn), which lets callers attribute
// cache-miss work to exactly one request.
package singleflight

import (
	"errors"
	"sync"
)

// ErrLeaderPanicked is the error shared callers receive when the
// executing call panicked.
var ErrLeaderPanicked = errors.New("singleflight: leader panicked")

// call is one in-flight (or completed) invocation.
type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

// Group coalesces calls by key. The zero value is ready to use.
type Group struct {
	mu sync.Mutex
	m  map[string]*call
}

// Do runs fn once per key at a time: concurrent callers with the same
// key wait for the leader's fn and receive its result. leader reports
// whether this caller executed fn. Once the leader's fn returns, the key
// is forgotten — a later Do starts a fresh invocation.
func (g *Group) Do(key string, fn func() (any, error)) (v any, err error, leader bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, false
	}
	c := new(call)
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// The leader never blocks on followers. If fn panics, followers get
	// ErrLeaderPanicked instead of being stranded (or silently handed a
	// zero value), and the panic propagates on the leader's goroutine.
	defer func() {
		r := recover()
		if r != nil {
			c.err = ErrLeaderPanicked
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = fn()
	return c.val, c.err, true
}
