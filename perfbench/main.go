// Command perfbench is the repository's benchmark. It runs one named
// workload against the system through its public entry points —
// server.Handler over loopback, the mcdb, engine and des functions,
// and experiments.Run — checks every answer, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, normally through run.py, which
// builds this package first):
//
//	perfbench --workload serve-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports the per-layer metrics of a traced run, and
// writes the spans under --out. README.md gives the workloads, the
// metrics and which layer should move which end-to-end number.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one named traffic mix. rate and capacity were measured
// at the parent of the commit that added this benchmark (2 vCPU,
// go1.24) and are frozen, so that every later change is measured under
// the same load.
type workload struct {
	name string
	// rate is the open-loop Poisson arrival rate per second, about half
	// of capacity.
	rate float64
	// capacity is the closed-loop completion rate per second measured
	// at the seed; it sizes the closed-loop batch.
	capacity float64
	tenants  int
	// openSenders is the open loop's sender goroutines; 0 means nproc.
	// A cold or SQL request already runs on every CPU (the server's
	// MaxWorkers is nproc), so a second sender would only time-share
	// them; requests queue in arrival order instead.
	openSenders int
}

var workloads = []workload{
	{name: "serve-cold", rate: 12, capacity: 28, tenants: 4, openSenders: 1},
	{name: "serve-hot", rate: 1250, capacity: 2500, tenants: 2},
	{name: "sql-join", rate: 15, capacity: 31, tenants: 2, openSenders: 1},
	{name: "experiments"},
}

// Share of --seconds spent in the open-loop phase; the closed-loop
// batch is sized to take the rest at the frozen capacity.
const openShare = 0.5

// closedWindows is how many equal parts the closed-loop batch is sent
// in, with a speed probe after each.
const closedWindows = 5

// A run sets its fixture up at least minSetups times, and more while
// the set-ups so far took less than setupBudget in all, up to
// maxSetups; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 201
	setupBudget = 3 * time.Second
)

// timeSetups runs setup once (once) or as often as the constants above
// say, with a collection before each and undo between them, between
// two speed probes. It returns the median set-up time less the share
// steal took over the set-ups (calib.go), and every set-up's raw time
// in seconds.
func timeSetups(p *speedProbe, once bool, setup, undo func() error) (time.Duration, []float64, error) {
	p.measure()
	steal := startSteal()
	var times []float64
	total := time.Duration(0)
	for {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, nil, err
		}
		d := time.Since(t0)
		times, total = append(times, d.Seconds()), total+d
		n := len(times)
		if once || n >= maxSetups || (n >= minSetups && total >= setupBudget) {
			break
		}
		if err := undo(); err != nil {
			return 0, nil, err
		}
		runtime.GC()
	}
	d := unstolen(time.Duration(median(times)*float64(time.Second)), steal.frac())
	p.measure()
	return d, times, nil
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run reports.
type result struct {
	metrics   []metric
	notes     []metric // printed and recorded, but not in the result line
	attempted int
	failed    int
	problems  []string // failed checks; any makes the run incorrect
	record    map[string]any
	spans     []span
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(name string, value float64, unit string) {
	r.notes = append(r.notes, metric{name, value, unit})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-cold, serve-hot, sql-join or experiments")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run record and spans")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(context.Background(), *w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	ok, err := report(res, *w, *seed, *trace, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(ctx context.Context, w workload, seed uint64, seconds int, traced bool) (*result, error) {
	nproc := runtime.NumCPU()
	res := &result{record: map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "traced": traced,
		"nproc": nproc, "GOMAXPROCS": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"GOOS": runtime.GOOS, "GOARCH": runtime.GOARCH,
	}}
	var err error
	if w.name == "experiments" {
		err = runExperiments(ctx, res, seed, nproc, traced)
	} else {
		err = runServe(ctx, res, w, seed, seconds, nproc, traced)
	}
	return res, err
}

// report prints every metric by name with its unit, writes the run
// record, and prints the result line last. It returns whether the run
// was correct.
func report(res *result, w workload, seed uint64, trace int, outDir string) (bool, error) {
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			res.problem("metric %s is not a finite number", m.name)
		}
	}
	correct := len(res.problems) == 0 && res.failed == 0
	for _, p := range res.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("%-36s %14d %s\n", "attempted", res.attempted, "count")
	fmt.Printf("%-36s %14d %s\n", "failed", res.failed, "count")
	fmt.Printf("%-36s %14.6g %s\n", "error_rate", errRate, "ratio")
	metrics := make(map[string]any, len(res.metrics))
	for _, m := range res.metrics {
		fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	notes := make(map[string]any, len(res.notes))
	for _, m := range res.notes {
		fmt.Printf("%-36s %14.6g %s (not gated)\n", m.name, m.value, m.unit)
		notes[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	res.record["not_gated"] = notes
	if res.spans != nil {
		self := map[string]float64{}
		for name, d := range selfByName(res.spans) {
			self[name] = ms(d)
		}
		res.record["span_self_ms_median"] = self
	}
	res.record["error_rate"] = errRate
	res.record["problems"] = res.problems
	res.record["metrics"] = metrics
	rec, err := json.Marshal(res.record)
	if err != nil {
		return false, err
	}
	fmt.Printf("run %s\n", rec)
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, trace))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(base+".json", rec, 0o644); err != nil {
		return false, err
	}
	if res.spans != nil {
		if err := writeSpans(base+"-spans.json", res.spans); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

// latency reports the median and tail of a latency sample under the
// given names: add puts them in the result line, note only prints and
// records them. The tail is the highest percentile with at least ten
// samples beyond it; the percentile and the sample count go into the
// run record.
func latency(res *result, lat []time.Duration, p50Name, tailName string, put func(string, float64, string)) {
	xs := msList(lat)
	put(p50Name, median(xs), "ms")
	t, pct, ok := tail(xs)
	if !ok {
		res.problem("%d latency samples leave no percentile with ten beyond it", len(xs))
		return
	}
	put(tailName, t, "ms")
	res.record["tail_percentile"] = pct
	res.record["tail_windows"] = max(1, len(xs)/tailWindow)
	res.record["latency_samples"] = len(xs)
}

// msList converts durations to milliseconds.
func msList(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = ms(v)
	}
	return out
}
