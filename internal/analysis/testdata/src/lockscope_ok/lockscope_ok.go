// Package lockscope_ok holds compliant critical sections: metadata-only
// work under the lock, kernel work outside it, early-unlock branches.
// lockscope must stay silent here.
package lockscope_ok

import (
	"sync"
	"time"
)

type server struct {
	mu    sync.Mutex
	count int
}

func metadataOnly(s *server) {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
}

func workAfterUnlock(s *server) {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

func earlyUnlockBranch(s *server, skip bool) {
	s.mu.Lock()
	if skip {
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
		return
	}
	s.count++
	s.mu.Unlock()
}

// goroutineUnderLock launches work from the critical section; the body
// runs off the lock and is checked as its own function.
func goroutineUnderLock(s *server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		time.Sleep(time.Millisecond)
	}()
	s.count++
}

// marshalOutsideLock does the heavy serialization before entering the
// critical section — compliant.
func marshalOutsideLock(s *server) {
	b := coreMarshal()
	s.mu.Lock()
	s.count += len(b)
	s.mu.Unlock()
}

func coreMarshal() []byte { return nil }

// warmUnderLock calls a helper that starts its slow work on a
// goroutine, which runs off the lock.
func warmUnderLock(s *server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	startWarm()
}

func startWarm() { go func() { time.Sleep(time.Millisecond) }() }
