package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the average of xs in sorted order, or 0 for an empty
// slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// heapSampler tracks the largest live Go heap, as the last garbage
// collection measured it, between readings. It samples in the
// background and forces no collection, so it sees every stage of a
// pass (training scratch, sync frames, retransmit buffers, index
// builds, two snapshots live during a reload) without moving the
// collector's timing.
type heapSampler struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

// heapSamplePeriod is how often the sampler reads the live heap.
const heapSamplePeriod = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak since the last take in MiB and starts a new
// interval from the current live heap.
func (h *heapSampler) take() float64 {
	peak := h.peak.Swap(0)
	h.sample()
	return float64(peak) / (1 << 20)
}

func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

// maxOf returns the largest value of xs, or 0 for an empty slice.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total ticks. ok is false where the file is absent.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// Fields past steal (guest, guest_nice) are already counted
		// in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter reports the share of all CPU time the hypervisor stole
// between its start and a reading. It is a diagnostic for reading
// results; no run is dropped or repeated because of it.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{steal: s, total: t, ok: ok}
}

func (m stealMeter) share() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// checks collects correctness failures; a run is correct when none
// were recorded.
type checks struct {
	mu       sync.Mutex
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.failures) == 0
}
