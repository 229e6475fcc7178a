package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := poissonSchedule(7, 100, 2000), poissonSchedule(7, 100, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 100, 2000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 2000 exponential gaps at 100/s end near 20 s.
	if end := a[len(a)-1]; end < 18*time.Second || end > 22*time.Second {
		t.Fatalf("2000 arrivals at 100/s end at %v", end)
	}
}

func TestRequestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	tenants := tenantNames(2)
	for _, kind := range []string{"serve-cold", "serve-hot", "sql-join"} {
		a, b := newTraffic(kind, 3, tenants), newTraffic(kind, 3, tenants)
		x, y := a.take(5000), b.take(5000)
		for i := range x {
			if !bytes.Equal(x[i].body, y[i].body) || x[i].class != y[i].class || x[i].check != y[i].check {
				t.Fatalf("%s: request %d differs between two generators with one seed", kind, i)
			}
		}
		if reflect.DeepEqual(a.primeOps(), newTraffic(kind, 4, tenants).primeOps()) && kind == "serve-hot" {
			t.Fatalf("%s: seeds 3 and 4 prime the same working set", kind)
		}
		z := newTraffic(kind, 4, tenants).take(50)
		same := 0
		for i := range z {
			if bytes.Equal(z[i].body, x[i].body) {
				same++
			}
		}
		if same == len(z) {
			t.Fatalf("%s: seeds 3 and 4 send the same requests", kind)
		}
	}
}

func TestServeHotMix(t *testing.T) {
	g := newTraffic("serve-hot", 1, tenantNames(2))
	primed := map[uint64]bool{}
	resident := map[string]bool{} // tenant and seed of every pair a repeat has asked for
	for _, o := range g.primeOps() {
		primed[o.key] = true
	}
	pairKey := func(o op) string { return fmt.Sprintf("%s/%d", o.q.Tenant, o.q.Seed) }
	classes := map[string]int{}
	repeatsPrimed := 0
	keys := map[uint64]bool{}
	var ops []op
	for range churnEvery {
		ops = append(ops, g.next()) // next keeps every decoded request
	}
	for _, o := range g.primeOps() {
		resident[pairKey(o)] = true
	}
	for _, o := range ops {
		classes[o.class]++
		switch {
		case o.class == classRepeat:
			resident[pairKey(o)] = true
			if primed[o.key] {
				repeatsPrimed++
			}
		case keys[o.key]:
			t.Fatalf("%s request repeats key %x", o.class, o.key)
		case !resident[pairKey(o)]:
			t.Fatalf("%s request on pair %s, which no repeat has realized", o.class, pairKey(o))
		}
		keys[o.key] = true
	}
	if share := float64(classes[classRepeat]) / churnEvery; classes[classPred] == 0 || classes[classWhatIf] == 0 || share < 0.5 {
		t.Fatalf("class mix %v", classes)
	}
	// Within the first churn period most repeats hit a primed key, and
	// some do not: the churn has started.
	if repeatsPrimed == classes[classRepeat] || repeatsPrimed < classes[classRepeat]/2 {
		t.Fatalf("%d of %d repeats hit a primed key", repeatsPrimed, classes[classRepeat])
	}
}

// Every batch keeps at least one answer of each class for the oracle.
func TestTakeSamplesEveryClass(t *testing.T) {
	g := newTraffic("serve-hot", 1, tenantNames(2))
	for _, n := range []int{1, 10, 200} {
		sampled := map[string]bool{}
		sent := map[string]bool{}
		for _, o := range g.take(n) {
			sent[o.class] = true
			if o.check {
				if o.q == nil {
					t.Fatalf("a sampled %s request lost its decoded form", o.class)
				}
				sampled[o.class] = true
			} else if o.q != nil {
				t.Fatalf("an unsampled %s request kept its decoded form", o.class)
			}
		}
		if !reflect.DeepEqual(sent, sampled) {
			t.Fatalf("take(%d) sent %v and sampled %v", n, sent, sampled)
		}
	}
}

// A handler that stalls once must delay every request queued behind
// it, and the open loop must charge that delay to them: latency runs
// from the due time, not from when the request was finally sent.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	send := func(_, _ int) bool {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
		if err != nil {
			return false
		}
		resp, err := client.Do(req)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	arrivals := make([]time.Duration, 20)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * 10 * time.Millisecond
	}
	r := openLoop(context.Background(), arrivals, 1, send)
	if r.failed() != 0 {
		t.Fatalf("%d requests failed", r.failed())
	}
	if r.latency[0] < stall {
		t.Fatalf("the stalled request took %v", r.latency[0])
	}
	// Request i was due at 10i ms and could not start before the stall
	// ended at about 300 ms.
	for i := 1; i < 20; i++ {
		if min := stall - arrivals[i]; r.latency[i] < min {
			t.Errorf("request %d: latency %v, want at least %v", i, r.latency[i], min)
		}
	}
	if r.backlog < 10 {
		t.Errorf("backlog peaked at %d during a %v stall at 100 requests/s", r.backlog, stall)
	}
}

func TestClosedLoopRunsEveryOperationOnce(t *testing.T) {
	var seen [100]atomic.Int64
	r := closedLoop(context.Background(), 100, 3, func(_, i int) bool { seen[i].Add(1); return true })
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("operation %d ran %d times", i, seen[i].Load())
		}
	}
	if r.attempts != 100 || r.failed() != 0 {
		t.Fatalf("attempts %d, failed %d", r.attempts, r.failed())
	}
}

func TestTailRank(t *testing.T) {
	if _, _, ok := tailRank(10); ok {
		t.Fatal("10 samples cannot have ten beyond a percentile")
	}
	for _, c := range []struct {
		n, idx int
		pct    float64
	}{{11, 0, 100.0 / 11}, {100, 89, 90}, {1000, 989, 99}} {
		idx, pct, ok := tailRank(c.n)
		if !ok || idx != c.idx || pct != c.pct {
			t.Errorf("tailRank(%d) = %d, %v, %v; want %d, %v", c.n, idx, pct, ok, c.idx, c.pct)
		}
	}
}

// One long stall in a large sample moves the tail of one window only.
func TestTailIsAMedianOverWindows(t *testing.T) {
	lat := make([]float64, 5*tailWindow)
	for i := range lat {
		lat[i] = float64(i % 100)
	}
	v, pct, ok := tail(lat)
	if !ok || v != 98 || pct != 99 {
		t.Fatalf("tail = %v at p%v", v, pct)
	}
	for i := 0; i < 50; i++ {
		lat[2*tailWindow+i] = 1e6 // a stall in the third window
	}
	if v2, _, _ := tail(lat); v2 != v {
		t.Fatalf("a stall in one window moved the tail from %v to %v", v, v2)
	}
	if v, _, _ := tail(lat[:500]); v != 97 {
		t.Fatalf("a small sample's tail is %v, want its 11th largest", v)
	}
}

func TestNormalizeRestatesAtReferenceSpeed(t *testing.T) {
	p := &speedProbe{times: []time.Duration{refProbe}}
	if got := p.normalize(time.Second); got != 1 {
		t.Fatalf("at reference speed 1 s reads %v s", got)
	}
	// Probes twice as slow as the reference: the machine ran at half
	// speed, so the phase would have taken half as long. One fast
	// probe does not move the median.
	p.times = []time.Duration{2 * refProbe, refProbe / 2, 2 * refProbe}
	if got := p.normalize(time.Second); got != 0.5 {
		t.Fatalf("at half speed 1 s reads %v s", got)
	}
}

// The closed loop sends every operation once, in windows with a probe
// after each, and reports a positive rate.
func TestWindowedClosedLoopSendsEachOperationOnce(t *testing.T) {
	const n = 50
	var sent [n]atomic.Int64
	p := newSpeedProbe(2)
	res, rate := windowedClosedLoop(context.Background(), p, n, 5, 2, func(_, i int) bool {
		sent[i].Add(1)
		time.Sleep(time.Millisecond)
		return true
	})
	for i := range sent {
		if sent[i].Load() != 1 || !res.ok[i] || res.latency[i] < time.Millisecond {
			t.Fatalf("operation %d: sent %d times, ok %v, latency %v", i, sent[i].Load(), res.ok[i], res.latency[i])
		}
	}
	if rate <= 0 || res.attempts != n || len(p.times) != 6 {
		t.Fatalf("rate %v over %d attempts, %d probes", rate, res.attempts, len(p.times))
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "d", Start: 61, End: 62}, // a grandchild counts only against c
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 50, 2: 20, 3: 30, 4: 9, 5: 1}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestAnswerHashIgnoresOnlyTheCachedFlag(t *testing.T) {
	a := []byte(`{"tenant":"t","cached":false,"samples":[1,2]}`)
	b := []byte(`{"tenant":"t","cached":true,"samples":[1,2]}`)
	c := []byte(`{"tenant":"t","cached":true,"samples":[1,3]}`)
	ha, ca, oka := answerHash(a)
	hb, cb, okb := answerHash(b)
	hc, _, _ := answerHash(c)
	if !oka || !okb || ca || !cb {
		t.Fatalf("cached flags read as %v, %v", ca, cb)
	}
	if ha != hb || hb == hc {
		t.Fatal("hash must equate a cached repeat and tell different samples apart")
	}
	if _, _, ok := answerHash([]byte(`{"error":"x"}`)); ok {
		t.Fatal("an answer without the cached field must be refused")
	}
}
