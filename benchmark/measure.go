package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// host is the box and build a set of numbers was taken on; it is
// printed with every run and stored in every trace file.
type host struct {
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func hostRecord() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// rusage is the process's user and system CPU time so far and its
// high-water resident set in MB (Linux reports ru_maxrss in KiB).
func rusage() (user, sys time.Duration, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime), tv(ru.Stime), float64(ru.Maxrss) * 1024 / 1e6
}

// memInUseMB is the memory the Go runtime holds in use right now:
// everything it has mapped, less what it has released to the system and
// less the free spans it keeps for reuse. It is the resident set without
// the allocator's slack.
func memInUseMB() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
	}
	return (float64(s[0].Value.Uint64()) - float64(s[1].Value.Uint64()) - float64(s[2].Value.Uint64())) / 1e6
}

// gcCPUSeconds is the CPU time the runtime has spent collecting garbage.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// memEvery is how often memory in use is sampled while timing.
const memEvery = 50 * time.Millisecond

// meter accumulates wall, CPU, memory and allocator cost over the
// intervals a workload declares timed. Verification and replays happen
// between those intervals and are not charged to the ops.
type meter struct {
	wall, cpu time.Duration // cpu is user+system
	sys       time.Duration // the system part of cpu
	allocB    uint64
	gcPause   time.Duration
	gcCPU     float64   // seconds
	inUse     []float64 // memory in use, sampled every memEvery while timing
	maxRSS    float64   // ru_maxrss in MB when the last interval closed

	t0       time.Time
	u0, s0   time.Duration
	ms0      runtime.MemStats
	gc0      float64
	inRun    bool
	stopMem  chan struct{}
	memEnded chan struct{}
}

// sampleMem runs beside a timed interval; start owns it and stop waits
// for it, so m.inUse is never touched by two goroutines at once.
func (m *meter) sampleMem(stop <-chan struct{}, ended chan<- struct{}) {
	defer close(ended)
	tick := time.NewTicker(memEvery)
	defer tick.Stop()
	for {
		m.inUse = append(m.inUse, memInUseMB())
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// settle collects garbage off the clock, so that what is timed next starts
// from a heap that holds only what is live. Set-up's garbage (a hundred
// cold renders) and the garbage of verifying the previous op are the
// harness's; left in place they are charged to the next op as collector
// work and page faults on a heap grown for them.
func settle() { runtime.GC() }

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.gc0 = gcCPUSeconds()
	m.stopMem, m.memEnded = make(chan struct{}), make(chan struct{})
	go m.sampleMem(m.stopMem, m.memEnded)
	m.u0, m.s0, _ = rusage()
	m.t0 = time.Now()
	m.inRun = true
}

// stop closes the interval and returns its wall and CPU time.
func (m *meter) stop() (wall, cpu time.Duration) {
	d := time.Since(m.t0)
	u, sy, rss := rusage()
	if !m.inRun {
		return 0, 0
	}
	m.inRun = false
	close(m.stopMem)
	<-m.memEnded
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := gcCPUSeconds()
	m.wall += d
	m.maxRSS = rss
	m.cpu += u - m.u0 + sy - m.s0
	m.sys += sy - m.s0
	m.allocB += ms.TotalAlloc - m.ms0.TotalAlloc
	m.gcPause += time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs)
	m.gcCPU += gc - m.gc0
	return d, u - m.u0 + sy - m.s0
}
