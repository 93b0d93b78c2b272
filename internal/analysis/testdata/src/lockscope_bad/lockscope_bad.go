// Package lockscope_bad seeds lockscope violations: kernel calls and
// blocking I/O inside mutex critical sections, directly and through a
// package-local helper.
package lockscope_bad

import (
	"os"
	"sync"
	"time"

	"sonic/internal/analysis/testdata/src/lockscope_bad/core"
	"sonic/internal/analysis/testdata/src/lockscope_bad/fm"
	"sonic/internal/analysis/testdata/src/lockscope_bad/modem"
	"sonic/internal/analysis/testdata/src/lockscope_bad/webrender"
)

type server struct {
	mu sync.Mutex
	rw sync.RWMutex
}

func (s *server) renderUnderLock() {
	s.mu.Lock()
	webrender.Render() // want: kernel call while s.mu held
	s.mu.Unlock()
}

func (s *server) sleepUnderDeferredUnlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want: time.Sleep while s.mu held
}

func (s *server) fileIOUnderRLock() error {
	s.rw.RLock()
	defer s.rw.RUnlock()
	_, err := os.ReadFile("x") // want: os.ReadFile while s.rw held
	return err
}

func (s *server) kernelViaHelper() {
	s.mu.Lock()
	defer s.mu.Unlock()
	helper() // want: kernel call via helper while s.mu held
}

func helper() { webrender.Render() }

// marshalUnderShardLock serializes a bundle inside the queue shard's
// critical section — the heavy-call rule, not just kernel packages.
func (s *server) marshalUnderShardLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = core.MarshalBundle() // want: heavy call while s.mu held
}

// modulateUnderTowerLock runs OFDM modulation — the fleet drain's
// dominant cost — inside a tower mutex: the heavy-call rule must name
// modem.Modulate specifically, not just the kernel package.
func (s *server) modulateUnderTowerLock(m *modem.OFDM, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = m.Modulate(payload) // want: heavy call while s.mu held
}

// broadcastUnderTowerLock holds a mutex across the full FM broadcast
// chain, reached through a method.
func (s *server) broadcastUnderTowerLock(link *fm.FMLink, audio []float64) {
	s.mu.Lock()
	_ = link.Transmit(audio, 48000) // want: kernel call while s.mu held
	s.mu.Unlock()
}

// airtimeUnderLock shows rule precedence: these cheap calls still
// trip the blanket kernel-package rule (fm/modem basenames), but they
// report "(kernel package)" where Modulate above names the
// specific heavy call.
func (s *server) airtimeUnderLock(m *modem.OFDM) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.Airtime(1) + fm.RSSI() // want: kernel calls while s.mu held
}

// renderViaCallback holds the lock across a helper whose kernel call
// sits in a closure it hands on: the shape of a cache's render-on-miss
// callback, which runs before the helper returns.
func (s *server) renderViaCallback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	cachedRender() // want: kernel call via cachedRender while s.mu held
}

func cachedRender() { onMiss(func() { webrender.Render() }) }

func onMiss(fill func()) { fill() }
