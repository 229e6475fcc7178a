package main

// The served workloads: serve-cold, serve-hot and sql-join.

import (
	"context"
	"fmt"
	"math"
	"time"

	"modeldata/internal/mcdb"
	"modeldata/internal/server"
)

// rejectedMetrics are the server's counters of 429 and 503 answers.
var rejectedMetrics = []string{server.MetricRejectedBusy, server.MetricRejectedTenant, server.MetricRejectedDraining}

func tenantNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%d", i)
	}
	return out
}

// runServe sets the fixture up (timeSetups; setup_s is the median),
// then runs an open-loop phase at the workload's fixed rate and a
// closed-loop batch. A traced run sends two halves of the open-loop
// phase on one schedule, untraced then traced, and then climbs the
// layer ladder.
func runServe(ctx context.Context, res *result, w workload, seed uint64, seconds, nproc int, traced bool) error {
	cfg := serverConfig(nproc)
	tenants := tenantNames(w.tenants)
	nOpen := int(math.Round(w.rate * openShare * float64(seconds)))
	nClosed := int(math.Round(w.capacity * (1 - openShare) * float64(seconds)))
	res.record["server_config"] = configRecord(cfg)
	res.record["fixture"] = map[string]any{"tenants": w.tenants, "patients_per_tenant": patients,
		"query_iterations": iterations, "sql_iterations": sqlIters, "hot_pairs": w.tenants * hotPerTenant}
	res.record["rate_per_s"] = w.rate
	senders := w.openSenders
	if senders == 0 {
		senders = nproc
	}
	res.record["connections"] = nproc
	res.record["open_loop_senders"] = senders
	res.record["open_loop_requests"] = nOpen
	res.record["closed_loop_requests"] = nClosed

	b := newBook()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	gen := newTraffic(w.name, seed, tenants)
	prime := gen.primeOps()
	sp := newSpeedProbe(nproc)
	var f *fixture
	setup, setupTimes, err := timeSetups(sp, traced, func() error {
		var err error
		if f, err = startFixture(tenants, nproc, cfg, tr); err != nil {
			return err
		}
		if len(prime) > 0 {
			s := newSender(f, prime, nproc, b, nil, 0)
			r := closedLoop(ctx, len(prime), nproc, s.send)
			res.attempted += r.attempts
			res.failed += r.failed()
		}
		return nil
	}, func() error { return f.close() })
	if err != nil {
		return err
	}
	defer f.close()
	res.record["setup_raw_s"] = setupTimes

	// Warm-up: connections, goroutine stacks and code pages, untimed.
	warm := gen.take(4 * nproc)
	s := newSender(f, warm, nproc, b, nil, 0)
	r := closedLoop(ctx, len(warm), nproc, s.send)
	res.attempted += r.attempts
	res.failed += r.failed()

	or, err := newOracle()
	if err != nil {
		return err
	}
	start := snapshotCounters(f)
	if !traced {
		openOps := gen.take(nOpen)
		closedOps := gen.take(nClosed)
		m := startMemWatch()
		open := newSender(f, openOps, nproc, b, nil, 0)
		ro := openLoop(ctx, poissonSchedule(seed, w.rate, nOpen), senders, open.send)
		closed := newSender(f, closedOps, nproc, b, nil, 0)
		beforeClosed := snapshotCounters(f)
		// The live heap is taken over the closed loop alone, where every
		// sender is busy; the open loop has fewer requests in flight.
		hm := startMemWatch()
		rc, rate := windowedClosedLoop(ctx, sp, nClosed, closedWindows, nproc, closed.send)
		closedMem := hm.stop()
		closedCounters := snapshotCounters(f).sub(beforeClosed)
		mem := m.stop()
		res.attempted += ro.attempts + rc.attempts
		res.failed += ro.failed() + rc.failed()
		latency(res, ro.latency, "p50_ms", "tail_ms", res.note)
		res.add("setup_s", sp.normalize(setup), "s")
		res.add("capacity_rps", rate, "1/s")
		res.add("run_s", float64(nClosed)/rate, "s")
		res.record["closed_loop_wall_s"] = rc.elapsed.Seconds()
		res.record["closed_loop_class_time_share"], res.record["closed_loop_class_mean_ms"] = classTimes(closedOps, rc.latency)
		res.record["closed_loop_realizations"] = closedCounters[mcdb.MetricRealizeCacheMisses]
		res.record["steal_frac"] = mem.stealFrac
		res.add("alloc_kb_per_op", float64(mem.allocBytes)/1024/float64(nOpen+nClosed), "KB")
		res.add("heap_peak_mb", closedMem.peakLive/(1<<20), "MB")
		or.verify(ctx, openOps, open.kept)
		or.verify(ctx, closedOps, closed.kept)
		or.requireEveryClass(openOps, closedOps)
	} else {
		half := nOpen / 2
		plainOps, tracedOps := gen.take(half), gen.take(half)
		sched := poissonSchedule(seed, w.rate, half)
		plain := newSender(f, plainOps, nproc, b, nil, 0)
		dupBefore := b.duplicatesNow()
		rp := openLoop(ctx, sched, senders, plain.send)
		before := snapshotCounters(f)
		m := startMemWatch()
		trs := newSender(f, tracedOps, nproc, b, tr, 1)
		rt := openLoop(ctx, sched, senders, trs.send)
		mem := m.stop()
		res.attempted += rp.attempts + rt.attempts
		res.failed += rp.failed() + rt.failed()
		traffic := snapshotCounters(f).sub(before)
		loadgenMetrics(res, rt)
		latency(res, rt.latency, "loadgen.p50_ms", "loadgen.tail_ms", res.add)
		serverMetrics(res, traffic, b.duplicatesNow()-dupBefore, countClass(tracedOps, classWhatIf))
		res.add("runtime.gc_cpu_frac", mem.gcFrac, "ratio")
		res.record["steal_frac"] = mem.stealFrac
		p50t, p50p := median(msList(rt.latency)), median(msList(rp.latency))
		res.add("bench.trace_overhead_pct", 100*(p50t-p50p)/p50p, "%")
		or.verify(ctx, plainOps, plain.kept)
		or.verify(ctx, tracedOps, trs.kept)
		or.requireEveryClass(plainOps, tracedOps)
		class := map[string]string{"serve-cold": classCold, "serve-hot": classRepeat, "sql-join": classSQL}[w.name]
		if err := climbLadder(ctx, res, tr, seed, class, nproc, true); err != nil {
			return err
		}
		res.spans = tr.snapshot()
	}
	guard(res, w.name, snapshotCounters(f).sub(start))
	for _, msg := range b.failuresNow() {
		res.problem("%s", msg)
	}
	for _, msg := range or.bad {
		res.problem("oracle: %s", msg)
	}
	res.record["oracle_checked"] = or.checked
	res.record["speed_probe"] = sp.record()
	return nil
}

// classTimes returns each request class's share of the summed
// latency of ops, and its mean latency in milliseconds.
func classTimes(ops []op, lat []time.Duration) (share, meanMS map[string]float64) {
	share, meanMS = map[string]float64{}, map[string]float64{}
	n := map[string]int{}
	total := 0.0
	for i, o := range ops {
		share[o.class] += lat[i].Seconds()
		n[o.class]++
		total += lat[i].Seconds()
	}
	for c, t := range share {
		meanMS[c] = 1000 * t / float64(n[c])
		share[c] = t / total
	}
	return share, meanMS
}

func countClass(ops []op, class string) int {
	n := 0
	for _, o := range ops {
		if o.class == class {
			n++
		}
	}
	return n
}

// counters is a snapshot of the registry counters the benchmark reads.
type counters map[string]int64

var counterNames = append([]string{
	server.MetricCacheHits, server.MetricCacheMisses, server.MetricCacheEvictions,
	mcdb.MetricRealizeCacheHits, mcdb.MetricRealizeCacheMisses, mcdb.MetricDeltaItersSkipped,
}, rejectedMetrics...)

func snapshotCounters(f *fixture) counters {
	c := counters{}
	for _, name := range counterNames {
		c[name] = f.counter(name)
	}
	return c
}

func (c counters) sub(prev counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - prev[k]
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// guard checks that a workload exercised what it claims to. It counts
// from the end of set-up, so serve-hot's priming misses are excluded.
func guard(res *result, name string, c counters) {
	switch name {
	case "serve-cold", "sql-join":
		if c[server.MetricCacheHits] != 0 || c[mcdb.MetricRealizeCacheHits] != 0 {
			res.problem("guard: %s answered %d requests from the result cache and %d from the bundle cache; want none",
				name, c[server.MetricCacheHits], c[mcdb.MetricRealizeCacheHits])
		}
	case "serve-hot":
		if c[server.MetricCacheHits] == 0 || c[mcdb.MetricRealizeCacheHits] == 0 || c[mcdb.MetricDeltaItersSkipped] == 0 {
			res.problem("guard: serve-hot saw %d result-cache hits, %d bundle-cache hits and %d skipped delta iterations; want all above 0",
				c[server.MetricCacheHits], c[mcdb.MetricRealizeCacheHits], c[mcdb.MetricDeltaItersSkipped])
		}
	}
}

// loadgenMetrics reports how the generator kept its schedule.
func loadgenMetrics(res *result, r loopResult) {
	res.add("loadgen.late_p99_ms", ms(quantile(append([]time.Duration(nil), r.late...), 0.99)), "ms")
	res.add("loadgen.backlog_max", float64(r.backlog), "count")
}

// serverMetrics reports the server's and the bundle cache's counters
// over the traced traffic.
func serverMetrics(res *result, c counters, duplicates, whatIfs int) {
	rejected := int64(0)
	for _, name := range rejectedMetrics {
		rejected += c[name]
	}
	res.add("server.cache_hit_ratio", ratio(c[server.MetricCacheHits], c[server.MetricCacheHits]+c[server.MetricCacheMisses]), "ratio")
	res.add("server.cache_evictions", float64(c[server.MetricCacheEvictions]), "count")
	res.add("server.duplicate_misses", float64(duplicates), "count")
	res.add("server.rejected", float64(rejected), "count")
	res.add("mcdb.realize_cache_hit_ratio",
		ratio(c[mcdb.MetricRealizeCacheHits], c[mcdb.MetricRealizeCacheHits]+c[mcdb.MetricRealizeCacheMisses]), "ratio")
	res.add("mcdb.delta_skip_ratio", ratio(c[mcdb.MetricDeltaItersSkipped], int64(whatIfs)*iterations), "ratio")
}
