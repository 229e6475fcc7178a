package main

// Process-wide allocation, live-heap and GC measurements over a timed
// phase, read from runtime/metrics.

import (
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mLiveHeap   = "/gc/heap/live:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// memWatch samples the live heap every few milliseconds until stop.
type memWatch struct {
	start   []metrics.Sample
	steal   stealMeter
	done    chan struct{}
	stopped chan float64 // the live heap's peakQuantile over the samples
}

type memStats struct {
	allocBytes uint64
	peakLive   float64 // bytes; the live heap's peakQuantile over the samples
	gcFrac     float64 // GC share of the CPU time available to the process
	stealFrac  float64 // see stealMeter
}

// stealMeter measures steal over an interval. On a virtual machine,
// steal is the share of its CPU time during which its CPUs were
// runnable but the hypervisor ran something else (see calib.go).
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{steal: s, total: t, ok: ok}
}

// frac returns the machine's steal share since the meter started, or 0
// where /proc/stat cannot be read.
func (m stealMeter) frac() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func readMetrics() []metrics.Sample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mLiveHeap}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return s
}

// peakQuantile is the quantile of the live-heap samples reported as
// the peak. The live heap a collection reports depends on how many
// requests it caught in flight and on how long its marking took, so
// its maximum, and even the peak of each second, jumps two- or
// threefold between runs of one workload; the level the heap stays
// under nine tenths of the time holds to a few percent.
const peakQuantile = 0.9

// startMemWatch starts the sampler.
func startMemWatch() *memWatch {
	m := &memWatch{start: readMetrics(), steal: startSteal(), done: make(chan struct{}), stopped: make(chan float64, 1)}
	go func() {
		var live []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: mLiveHeap}}
		for {
			metrics.Read(s)
			live = append(live, float64(s[0].Value.Uint64()))
			select {
			case <-tick.C:
			case <-m.done:
				sort.Float64s(live)
				m.stopped <- live[int(peakQuantile*float64(len(live)-1))]
				return
			}
		}
	}()
	return m
}

// stop ends the watch, waits for the sampler to exit and returns the
// phase's figures.
func (m *memWatch) stop() memStats {
	close(m.done)
	st := memStats{peakLive: <-m.stopped, stealFrac: m.steal.frac()}
	end := readMetrics()
	st.allocBytes = end[0].Value.Uint64() - m.start[0].Value.Uint64()
	if cpu := end[3].Value.Float64() - m.start[3].Value.Float64(); cpu > 0 {
		st.gcFrac = (end[2].Value.Float64() - m.start[2].Value.Float64()) / cpu
	}
	return st
}
