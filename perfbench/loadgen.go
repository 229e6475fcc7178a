package main

// The load generator: an open loop that sends on a Poisson schedule
// whether or not earlier requests have finished, and a closed loop of
// back-to-back senders. Both run from this one process with a fixed
// number of sender goroutines. Open-loop latency is timed from each
// request's due time, so a stall also delays every request queued
// behind it.

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns n arrival offsets with exponential gaps at
// rate per second, drawn from seed. The same seed gives the same
// schedule.
func poissonSchedule(seed uint64, rate float64, n int) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0x5c4ed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// sendFunc sends operation i from sender goroutine w and reports
// whether it succeeded.
type sendFunc func(w, i int) bool

// loopResult is what one open- or closed-loop phase measured.
type loopResult struct {
	latency  []time.Duration // per operation; open loop: from due time
	ok       []bool
	late     []time.Duration // open loop: dispatch time minus due time
	backlog  int             // open loop: most operations due but not yet taken by a sender
	elapsed  time.Duration   // phase wall time, first due time to last completion
	attempts int
}

func (r loopResult) failed() int {
	n := 0
	for _, ok := range r.ok {
		if !ok {
			n++
		}
	}
	return n
}

// openLoop dispatches operation i at start+arrivals[i] to one of
// senders goroutines. A request that finds every sender busy waits in
// the queue, and that wait counts in its latency.
func openLoop(ctx context.Context, arrivals []time.Duration, senders int, send sendFunc) loopResult {
	n := len(arrivals)
	res := loopResult{
		latency:  make([]time.Duration, n),
		ok:       make([]bool, n),
		late:     make([]time.Duration, n),
		attempts: n,
	}
	queue := make(chan int, n) // sized to the number of sends, so dispatch never blocks
	var taken atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				taken.Add(1)
				res.ok[i] = send(w, i)
				res.latency[i] = time.Since(start.Add(arrivals[i]))
			}
		}(w)
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, at := range arrivals {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		res.late[i] = time.Since(due)
		if b := int(int64(i+1) - taken.Load()); b > res.backlog {
			res.backlog = b
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// closedLoop runs operations 0..n-1 from senders goroutines, each
// sending its next operation as soon as the previous one completes.
func closedLoop(ctx context.Context, n, senders int, send sendFunc) loopResult {
	res := loopResult{
		latency:  make([]time.Duration, n),
		ok:       make([]bool, n),
		attempts: n,
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				res.ok[i] = send(w, i)
				res.latency[i] = time.Since(t0)
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// tailRank returns the index, in a sorted sample of n, of the highest
// percentile that still has at least ten samples beyond it, and that
// percentile. It returns ok=false when n is too small to have one.
func tailRank(n int) (idx int, pct float64, ok bool) {
	if n <= 10 {
		return 0, 0, false
	}
	idx = n - 11
	return idx, 100 * float64(idx+1) / float64(n), true
}

// tailWindow is the most samples one tail estimate uses. In a larger
// sample the highest percentile with ten beyond it lies inside the
// run's single longest stall of the machine, so a large sample is cut
// into windows of this many consecutive requests and the median of
// their tails is reported.
const tailWindow = 1000

// tail returns the tail latency of lat (in arrival order): the median
// over windows of at most about tailWindow requests of each window's
// highest percentile with ten samples beyond it, and that percentile.
func tail(lat []float64) (value, pct float64, ok bool) {
	k := max(1, len(lat)/tailWindow)
	size := len(lat) / k
	var tails []float64
	for j := 0; j < k; j++ {
		w := lat[j*size : (j+1)*size]
		if j == k-1 {
			w = lat[j*size:]
		}
		s := append([]float64(nil), w...)
		sort.Float64s(s)
		idx, p, ok := tailRank(len(s))
		if !ok {
			return 0, 0, false
		}
		tails, pct = append(tails, s[idx]), p
	}
	return median(tails), pct, true
}

// windowedClosedLoop sends n operations closed loop in k consecutive
// windows of equal size, with a speed probe before the first and after
// each, so that the run's probes span the batch. It returns the merged
// result and the batch's CPU-bound completion rate: its operations
// over the process CPU time the windows took per CPU, at the reference
// machine's speed (calib.go). With every CPU busy, as in a closed loop
// of nproc senders, that is the wall-time rate the machine would reach
// with no steal.
func windowedClosedLoop(ctx context.Context, p *speedProbe, n, k, senders int, send sendFunc) (loopResult, float64) {
	res := loopResult{latency: make([]time.Duration, n), ok: make([]bool, n), attempts: n}
	var cpu time.Duration
	p.measure()
	for j := 0; j < k; j++ {
		lo, hi := j*n/k, (j+1)*n/k
		cpu0, ok0 := processCPU()
		r := closedLoop(ctx, hi-lo, senders, func(w, i int) bool { return send(w, lo+i) })
		cpu1, ok1 := processCPU()
		p.measure()
		d := r.elapsed // where the CPU time cannot be read
		if ok0 && ok1 && cpu1 > cpu0 {
			d = (cpu1 - cpu0) / time.Duration(p.cpus())
		}
		copy(res.latency[lo:hi], r.latency)
		copy(res.ok[lo:hi], r.ok)
		res.elapsed += r.elapsed
		cpu += d
	}
	return res, float64(n) / p.normalize(cpu)
}

// quantile returns the q-quantile (nearest rank) of d, which it sorts.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}

// median returns the median of xs (mean of the middle two for even
// lengths), leaving xs unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
