package main

// Host-speed normalization. The machine the benchmark runs on is a
// shared virtual machine, and the same work takes longer in some
// periods than in others, for two reasons:
//
//   - the hypervisor runs something else on our CPUs (steal, counted
//     in /proc/stat), which stretches wall time but not the CPU time
//     the kernel charges to the process;
//   - the CPUs run slower while they are ours (a busy sibling thread,
//     shared caches and memory bandwidth), which stretches both and
//     shows in no counter.
//
// A timed phase therefore counts the process CPU time it took per CPU
// where it keeps every CPU busy (the served closed loop), and otherwise
// its wall time less the share steal took (unstolen). Speed probes
// between the phases time a fixed kernel of this harness's own,
// independent of the system under test, in process CPU time, which
// steal does not inflate. The phases' times are restated at the speed
// the probe had on the reference machine.

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// probeLen is each probe goroutine's buffer: 512 KiB of float64,
	// about the size of one cold request's realized bundle.
	probeLen = 1 << 16
	// probeRuns is how many times one probe runs the kernel; it reports
	// the median.
	probeRuns = 3
	// refProbe is the probe's median CPU time per CPU on the reference
	// machine (2 vCPU, go1.24, quiet). It only sets the scale of
	// normalized times; comparisons between commits do not depend on it.
	refProbe = 12 * time.Millisecond
)

// speedProbe times one fixed kernel on every CPU: fill a buffer with
// normal draws from a fixed seed, sort it and sum it. The kernel
// allocates nothing, so the system's garbage does not reach it.
type speedProbe struct {
	bufs  [][]float64
	sums  []float64
	times []time.Duration // every probe taken, in order
}

func newSpeedProbe(nproc int) *speedProbe {
	p := &speedProbe{sums: make([]float64, nproc)}
	for range nproc {
		p.bufs = append(p.bufs, offHeap(probeLen))
	}
	return p
}

// offHeap returns a buffer of n float64 mapped outside the Go heap, so
// that the probe does not count in the live-heap figures, or an
// ordinary slice where the mapping fails. It is never unmapped.
func offHeap(n int) []float64 {
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]float64, n)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), n)
}

// measure finishes any garbage collection the system left running,
// then times the kernel probeRuns times and returns the median.
func (p *speedProbe) measure() time.Duration {
	runtime.GC()
	var runs [probeRuns]time.Duration
	for k := range runs {
		runs[k] = p.run()
	}
	slices.Sort(runs[:])
	d := runs[probeRuns/2]
	p.times = append(p.times, d)
	return d
}

// run times the kernel once: the process CPU time it took per CPU, or
// its wall time where the CPU time cannot be read.
func (p *speedProbe) run() time.Duration {
	cpu0, ok0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for g, b := range p.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(1, uint64(g)))
			for i := range b {
				b[i] = r.NormFloat64()
			}
			slices.Sort(b)
			s := 0.0
			for _, v := range b {
				s += v
			}
			p.sums[g] = s
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu1, ok1 := processCPU()
	if !ok0 || !ok1 || cpu1 <= cpu0 {
		return wall
	}
	return (cpu1 - cpu0) / time.Duration(p.cpus())
}

// cpus is the number of CPUs the probe runs on.
func (p *speedProbe) cpus() int { return len(p.bufs) }

// processCPU returns the user and system CPU time the process has used.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}

// unstolen returns d, a phase's wall time, less the share steal took
// over the phase. Steal is capped so that a machine that is almost
// never scheduled cannot turn a long phase into a near-zero one.
func unstolen(d time.Duration, steal float64) time.Duration {
	return time.Duration(float64(d) * (1 - min(steal, 0.9)))
}

// normalize restates d, an unstolen or CPU time, in seconds at the
// reference machine's speed, by the median of every probe taken so
// far. The machine's speed moves over minutes, so one figure for a
// run, taken once its timed phases are over, is steadier than the
// probes next to each phase.
func (p *speedProbe) normalize(d time.Duration) float64 {
	return d.Seconds() * ms(refProbe) / median(msList(p.times))
}

// record is the probe figures a run records.
func (p *speedProbe) record() map[string]any {
	ms := msList(p.times)
	return map[string]any{"probes": len(ms), "median_ms": median(ms), "ref_ms": refProbe.Seconds() * 1000}
}
