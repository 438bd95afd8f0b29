package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many identical set-ups a run times; setup_s is their
// median, so one slow build (a GC, a neighbour's burst) does not move it.
const setupReps = 7

// warmupSeconds runs the workload untimed before measuring, so caches,
// pools and the engine's compaction cadence reach steady state first.
const warmupSeconds = 2

// pct returns the p-th percentile (0 < p ≤ 1) of xs by nearest rank. xs is
// sorted in place. Empty input yields 0.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// median is pct(xs, 0.5).
func median(xs []float64) float64 { return pct(xs, 0.5) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters reads the Go runtime's allocation and GC counters.
type runtimeCounters struct {
	allocs, gcs uint64
}

var counterNames = []string{"/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

// window is the measurement window. Every timing metric of a run is the
// median over its whole windows of the per-window figure, so a few seconds
// disturbed by other tenants of the host do not move it. A window spans
// several of the mixed workload's periodic stalls (epoch seals every second,
// checkpoints every ~1.5 s), so each window sees a typical share of them.
const window = 5 * time.Second

// series holds latency samples stamped with their completion time.
type series struct {
	lat []float64       // µs
	at  []time.Duration // completion, from the phase start
}

func (s *series) add(lat float64, at time.Duration) {
	s.lat = append(s.lat, lat)
	s.at = append(s.at, at)
}

func (s *series) merge(o *series) {
	s.lat = append(s.lat, o.lat...)
	s.at = append(s.at, o.at...)
}

// windowed returns the median over the whole windows of span of the
// per-window p-th percentile; a span shorter than two windows is one window.
func (s *series) windowed(p float64, span time.Duration) float64 {
	buckets := make([][]float64, max(1, int(span/window)))
	for i, a := range s.at {
		w := int(a / window)
		if len(buckets) == 1 {
			w = 0
		}
		if w < len(buckets) {
			buckets[w] = append(buckets[w], s.lat[i])
		}
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, pct(b, p))
		}
	}
	return median(per)
}

// phase brackets one measured interval. A sampler records, per window, the
// CPU time used per item completed and the peak heap bytes occupied by
// objects (live or not yet swept); the runtime counters cover the phase.
type phase struct {
	start    time.Time
	cpu0     time.Duration
	counters runtimeCounters
	items    atomic.Int64
	stop     chan struct{}
	done     chan struct{}
	// Written by the sampler until done is closed.
	cpuPerItem, heapPeak []float64
}

// phaseStats is what a finished phase measured.
type phaseStats struct {
	allocs, gcs uint64
	// Medians over whole windows: CPU ns per item and peak heap MiB.
	cpuPerItem, heapPeakMiB float64
}

func startPhase() *phase {
	runtime.GC()
	p := &phase{start: time.Now(), cpu0: cpuTime(), counters: readCounters(),
		stop: make(chan struct{}), done: make(chan struct{})}
	go p.sample()
	return p
}

// count records n completed items; a nil phase (warm-up) counts nothing.
func (p *phase) count(n int) {
	if p != nil {
		p.items.Add(int64(n))
	}
}

func (p *phase) sample() {
	defer close(p.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	cpu, items, next := p.cpu0, int64(0), p.start.Add(window)
	var peak uint64
	closeWindow := func() {
		c, n := cpuTime(), p.items.Load()
		if n > items {
			p.cpuPerItem = append(p.cpuPerItem, float64(c-cpu)/float64(n-items))
		}
		p.heapPeak = append(p.heapPeak, float64(peak)/(1<<20))
		cpu, items, peak, next = c, n, 0, next.Add(window)
	}
	for {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
		if !time.Now().Before(next) {
			closeWindow()
		}
		select {
		case <-p.stop:
			// A phase shorter than a window still reports one.
			if len(p.heapPeak) == 0 {
				closeWindow()
			}
			return
		case <-t.C:
		}
	}
}

func (p *phase) end() phaseStats {
	c := readCounters()
	close(p.stop)
	<-p.done
	return phaseStats{
		allocs:      c.allocs - p.counters.allocs,
		gcs:         c.gcs - p.counters.gcs,
		cpuPerItem:  median(p.cpuPerItem),
		heapPeakMiB: median(p.heapPeak),
	}
}

// schedule replays an open-loop arrival schedule against measured service
// times. The load generator sleeps with the Go runtime's timer, which on
// Linux wakes up to a millisecond late; counting that lateness would bury
// microsecond service times under the generator's own jitter. Instead each
// operation's latency from its due time is reconstructed as if the
// generator had sent exactly on time: it starts at max(due, completion of
// the previous operation on the same connection) and takes the service time
// measured for it. A stall therefore still delays every operation due
// behind it, as an open loop requires.
type schedule struct {
	free time.Duration // reconstructed completion of the previous operation
}

// next returns the latency from due of an operation due at `due` (offset
// from the schedule start) whose service took `service`.
func (s *schedule) next(due, service time.Duration) time.Duration {
	start := max(due, s.free)
	s.free = start + service
	return s.free - due
}

// occupy adds work that holds the connection without being an operation
// of its own (an epoch seal or a replica sync on the writer's schedule).
func (s *schedule) occupy(due, service time.Duration) {
	s.free = max(due, s.free) + service
}

// sleepUntil sleeps until t; it returns at once if t has passed.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
