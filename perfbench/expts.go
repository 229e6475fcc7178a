package main

// The experiments workload: every registered experiment once, in
// order, through experiments.Run at the paper seed.

import (
	"context"
	"fmt"
	"time"

	"modeldata"
	"modeldata/internal/experiments"
	"modeldata/internal/parallel"
)

// passResult is one timed pass over the registry.
type passResult struct {
	ids   []string
	times []time.Duration
	gaps  []time.Duration // harness time between one experiment's end and the next's start
	wall  time.Duration
	run   time.Duration // the experiments' summed unstolen time
	fails []string
	mem   memStats
}

// pass runs every experiment once. The E-series verdicts are claims
// about the paper seed (modeldata.DefaultSeed), the seed the
// experiments command and its tests check, so the pass always uses it.
// With a tracer, each call is a span named experiments.<ID>. A speed
// probe after each experiment, inside the pass's wall time but outside
// the experiment's own time, collects that experiment's garbage, so it
// is not charged to the next.
func pass(ctx context.Context, tr *tracer, sp *speedProbe) passResult {
	ctx = parallel.WithStats(ctx, parallel.NewStats())
	p := passResult{ids: experiments.IDs()}
	m := startMemWatch()
	sp.measure()
	start := time.Now()
	last := start
	for _, id := range p.ids {
		steal := startSteal()
		t0 := time.Now()
		p.gaps = append(p.gaps, t0.Sub(last))
		s := tr.start("experiments."+id, 0, 0)
		r, err := experiments.Run(ctx, id, modeldata.DefaultSeed)
		tr.end(s)
		d := time.Since(t0)
		p.times = append(p.times, d)
		p.run += unstolen(d, steal.frac())
		sp.measure()
		last = time.Now()
		switch {
		case err != nil:
			p.fails = append(p.fails, fmt.Sprintf("%s: %v", id, err))
		case !r.Verdict:
			p.fails = append(p.fails, fmt.Sprintf("%s: verdict does not hold", id))
		}
	}
	p.wall = time.Since(start)
	p.mem = m.stop()
	return p
}

func (p passResult) check(res *result) {
	res.attempted += len(p.ids)
	res.failed += len(p.fails)
	for _, f := range p.fails {
		res.problem("experiment %s", f)
	}
}

// e1Patients is the SBP fixture size experiment E1 builds.
const e1Patients = 300

// setupInputs is the workload's set-up: the experiments package's
// exported input builders, the §2.1 SBP database at E1's size and the
// Figure 1 housing index at the paper seed.
func setupInputs() error {
	if _, err := experiments.SBPDatabase(e1Patients); err != nil {
		return err
	}
	experiments.HousingIndex(modeldata.DefaultSeed)
	return nil
}

// runExperiments measures an untraced pass, or with traced an untraced
// and a traced pass (the difference is the tracing overhead) plus the
// layer ladder.
func runExperiments(ctx context.Context, res *result, seed uint64, nproc int, traced bool) error {
	res.record["experiment_seed"] = modeldata.DefaultSeed
	res.record["experiments"] = len(experiments.IDs())
	sp := newSpeedProbe(nproc)
	setup, setupTimes, err := timeSetups(sp, false, setupInputs, func() error { return nil })
	if err != nil {
		return err
	}
	res.record["setup_raw_s"] = setupTimes
	plain := pass(ctx, nil, sp)
	plain.check(res)
	res.record["steal_frac"] = plain.mem.stealFrac
	if !traced {
		runS := sp.normalize(plain.run)
		res.add("setup_s", sp.normalize(setup), "s")
		latency(res, plain.times, "p50_ms", "tail_ms", res.note)
		res.add("capacity_rps", float64(len(plain.ids))/runS, "1/s")
		res.add("run_s", runS, "s")
		res.record["pass_wall_s"] = plain.wall.Seconds()
		res.add("alloc_kb_per_op", float64(plain.mem.allocBytes)/1024/float64(len(plain.ids)), "KB")
		res.add("heap_peak_mb", plain.mem.peakLive/(1<<20), "MB")
		res.record["speed_probe"] = sp.record()
		return nil
	}
	tr := newTracer()
	traced1 := pass(ctx, tr, sp)
	traced1.check(res)
	res.add("loadgen.late_p99_ms", ms(quantile(traced1.gaps, 0.99)), "ms")
	res.add("loadgen.backlog_max", 0, "count")
	latency(res, traced1.times, "loadgen.p50_ms", "loadgen.tail_ms", res.add)
	serverMetrics(res, counters{}, 0, 0)
	res.add("runtime.gc_cpu_frac", traced1.mem.gcFrac, "ratio")
	res.add("bench.trace_overhead_pct", 100*(traced1.run-plain.run).Seconds()/plain.run.Seconds(), "%")
	addExperimentTimes(res, traced1)
	if err := climbLadder(ctx, res, tr, seed, classCold, nproc, false); err != nil {
		return err
	}
	res.spans = tr.snapshot()
	res.record["speed_probe"] = sp.record()
	return nil
}

func addExperimentTimes(res *result, p passResult) {
	for i, id := range p.ids {
		res.add("experiments."+id+"_s", p.times[i].Seconds(), "s")
	}
}
