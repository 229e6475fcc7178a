package main

// Request generators for the served workloads. Every sequence is a
// pure function of the workload seed, so the same seed sends the same
// requests in the same order.

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"modeldata/internal/server"
)

// Request classes. The class decides which layers answer a request
// and how the oracle checks it.
const (
	classCold   = "cold"   // fresh (tenant, seed): realization, result and bundle caches miss
	classRepeat = "repeat" // key in the hot working set: result-cache hit
	classPred   = "pred"   // new deterministic predicate on a hot seed: bundle hit, result miss
	classWhatIf = "whatif" // new what-if on a hot seed: ExecDelta over cached bundles
	classSQL    = "sql"    // /v1/sql join at a fresh seed
)

const (
	sbpTable   = "sbp_data"
	iterations = 1000 // /v1/query Monte Carlo iterations
	sqlIters   = 10   // /v1/sql iterations
	joinSQL    = "SELECT AVG(sbp_data.sbp) FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid WHERE patients.gender = 'F'"
)

// op is one generated request. Only operations in the oracle sample
// keep their decoded request; the rest keep just what sending needs.
type op struct {
	class string
	path  string
	body  []byte
	key   uint64 // result-cache identity: equal keys must get equal answers
	check bool   // in the seeded oracle sample
	q     *server.QueryRequest
	sql   *server.SQLRequest
}

// traffic generates one workload's request sequence. Cold seeds come
// from a counter, so no two requests of a run share a (tenant, seed).
type traffic struct {
	kind     string
	r        *rand.Rand
	tenants  []string
	coldSeed uint64
	n        int // requests generated so far
	// serve-hot state
	hot     []string  // the working set's slots: the tenant of each
	hotBase uint64    // seeds of the working set are hotBase + a counter
	cdf     []float64 // Zipf popularity of the slots, cumulative
	fresh   int       // counter making predicate and what-if keys new
}

// serve-hot's working set is hotPerTenant slots per tenant. A slot
// holds one (tenant, seed) pair and one aggregate at a time: its seed
// advances every churnEvery requests, staggered across slots, so a new
// pair churns in every churnEvery/slots requests. The first requests
// for a new pair realize its bundles, and requests for the same new
// key that arrive meanwhile are duplicate misses. Predicates and
// what-ifs go to the pair their slot held churnLag requests earlier,
// which its repeats have realized by then. With 3 slots per tenant,
// every tenant's bundle LRU (mcdb.DefaultBundleCacheCap = 8) holds its
// current and previous pairs, and the slots' keys are far below the
// result cache's capacity. README.md ("serve-hot's mix") derives the
// shares, the skew and the churn.
const (
	hotPerTenant = 3
	// zipfAlpha is the popularity skew over the slots: the slot of rank
	// i is requested in proportion to 1/i^zipfAlpha. Web-cache request
	// streams measure 0.64 to 0.83 (Breslau et al., "Web Caching and
	// Zipf-like Distributions", INFOCOM 1999).
	zipfAlpha   = 0.8
	churnEvery  = 6000
	churnLag    = 500
	predShare   = 0.23
	whatIfShare = 0.19
)

// checkEvery sets the oracle sample: about one request in this many,
// per workload, keeps its answer for checking.
var checkEvery = map[string]int{"serve-cold": 8, "serve-hot": 97, "sql-join": 6}

var aggFns = []string{"count", "sum", "avg"}

func newTraffic(kind string, seed uint64, tenants []string) *traffic {
	t := &traffic{
		kind:     kind,
		r:        rand.New(rand.NewPCG(seed, 0x7a4f1c)),
		tenants:  tenants,
		coldSeed: seed<<20 + 1<<40,
	}
	if kind == "serve-hot" {
		t.hotBase = seed << 20
		for k := 0; k < hotPerTenant; k++ {
			t.hot = append(t.hot, tenants...) // ranks alternate between tenants
		}
		sum := 0.0
		for i := range t.hot {
			sum += math.Pow(float64(i+1), -zipfAlpha)
			t.cdf = append(t.cdf, sum)
		}
		for i := range t.cdf {
			t.cdf[i] /= sum
		}
	}
	return t
}

// take returns the next n requests. The oracle sample keeps at least
// one request of each class the n hold.
func (t *traffic) take(n int) []op {
	out := make([]op, n)
	first := map[string]int{}
	sampled := map[string]bool{}
	for i := range out {
		out[i] = t.next()
		c := out[i].class
		if _, ok := first[c]; !ok {
			first[c] = i
		}
		sampled[c] = sampled[c] || out[i].check
	}
	for c, i := range first {
		if !sampled[c] {
			out[i].check = true
		}
	}
	for i := range out {
		if !out[i].check {
			out[i].q, out[i].sql = nil, nil
		}
	}
	return out
}

func (t *traffic) next() op {
	i := t.n
	t.n++
	var o op
	switch t.kind {
	case "serve-cold":
		t.coldSeed++
		o = makeOp(classCold, &server.QueryRequest{Tenant: t.tenants[t.r.IntN(len(t.tenants))], Table: sbpTable,
			Col: "sbp", Fn: aggFns[t.r.IntN(len(aggFns))], Iterations: iterations, Seed: t.coldSeed}, nil)
	case "sql-join":
		t.coldSeed++
		o = makeOp(classSQL, nil, &server.SQLRequest{Tenant: t.tenants[t.r.IntN(len(t.tenants))], SQL: joinSQL,
			Iterations: sqlIters, Seed: t.coldSeed})
	default:
		o = t.hotOp(i)
	}
	o.check = t.r.IntN(checkEvery[t.kind]) == 0
	return o
}

// hotSeed is the seed slot k holds at request i.
func (t *traffic) hotSeed(k, i int) uint64 {
	gen := (i + k*churnEvery/len(t.hot)) / churnEvery
	return t.hotBase + uint64(gen*len(t.hot)+k)
}

// hotOp draws a slot by Zipf rank, then a class: mostly exact repeats
// of the slot's key, a share of new predicates and a share of
// new what-ifs.
func (t *traffic) hotOp(i int) op {
	k := min(sort.SearchFloat64s(t.cdf, t.r.Float64()), len(t.hot)-1)
	q := &server.QueryRequest{Tenant: t.hot[k], Table: sbpTable, Col: "sbp", Iterations: iterations, Seed: t.hotSeed(k, i)}
	u := t.r.Float64()
	if u < predShare+whatIfShare {
		// On a resident pair: the one the slot held churnLag requests
		// ago, whose bundles its repeats have realized by now.
		q.Seed = t.hotSeed(k, max(0, i-churnLag))
	}
	switch {
	case u < predShare:
		t.fresh++
		q.Fn = aggFns[t.r.IntN(len(aggFns))]
		q.Where = []server.Predicate{{Col: "pid", Op: "lt", Value: 20 + float64(t.r.IntN(60)) + float64(t.fresh)/1e7}}
		return makeOp(classPred, q, nil)
	case u < predShare+whatIfShare:
		t.fresh++
		// Half the targeted patients are male and outside the query's
		// selection, so delta execution skips every iteration for them.
		f := "F"
		q.Fn = "avg"
		q.Where = []server.Predicate{{Col: "gender", Op: "eq", Str: &f}}
		q.WhatIf = &server.WhatIf{Col: "sbp", Scale: 1.1, Shift: float64(t.fresh) / 1e6,
			Where: []server.Predicate{{Col: "pid", Op: "eq", Value: float64(t.r.IntN(100))}}}
		return makeOp(classWhatIf, q, nil)
	}
	q.Fn = aggFns[k%len(aggFns)]
	return makeOp(classRepeat, q, nil)
}

// primeOps are the requests that make serve-hot's working set
// resident: every slot's first pair, with each aggregate.
func (t *traffic) primeOps() []op {
	var out []op
	for k, tenant := range t.hot {
		q := &server.QueryRequest{Tenant: tenant, Table: sbpTable, Col: "sbp", Fn: aggFns[k%len(aggFns)],
			Iterations: iterations, Seed: t.hotSeed(k, 0)}
		out = append(out, makeOp(classRepeat, q, nil))
	}
	return out
}

// makeOp encodes a query (q) or SQL (s) request. Its key hashes the
// encoded request, which holds every field of the server's cache key.
func makeOp(class string, q *server.QueryRequest, s *server.SQLRequest) op {
	o := op{class: class, path: "/v1/query", q: q, sql: s}
	var v any = q
	if s != nil {
		o.path, v = "/v1/sql", s
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // these request structs always encode
	}
	h := fnv.New64a()
	h.Write([]byte(o.path))
	h.Write(body)
	o.body, o.key = body, h.Sum64()
	return o
}
