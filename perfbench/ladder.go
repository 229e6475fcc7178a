package main

// The layer ladder of a traced run: each rung calls one layer's public
// entry point directly, inside a span, on inputs made from the seed.
// Cold rungs use a fresh seed at every call, so no cache can answer
// for the layer being timed. Every traced run climbs the whole ladder,
// so each per-layer metric is measured on every workload; the
// workload's own request class decides which HTTP request the http
// rung sends.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"modeldata/internal/des"
	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
	"modeldata/internal/rng"
	"modeldata/internal/server"
)

// Calls per rung. The slow rungs (a realization or an SQL run takes
// tens of milliseconds at the seed) take few; the fast ones take
// enough for a steady median.
const (
	coldCalls    = 9
	fastCalls    = 200
	estCalls     = 50
	instCalls    = 20
	queueCalls   = 500
	ladderTenant = "ladder"
)

// ladder holds the rungs' shared state.
type ladder struct {
	tr    *tracer
	class string // the workload's request class, for the http rung
	nproc int
	seed  uint64 // next fresh seed
	f     *fixture
	db    *mcdb.DB
	sess  *mcdb.Session
	pid   int // position of pid in sbp_data
}

func (l *ladder) fresh() uint64 {
	l.seed++
	return l.seed
}

// medianOf times fn calls times inside spans named name and returns
// the median duration.
func (l *ladder) medianOf(name string, calls int, fn func(id uint64) error) (time.Duration, error) {
	ds := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		d, err := l.tr.timed(name, 0, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// paired alternates calls of a and b, so that drift in the machine's
// speed falls on both alike, and returns their median durations.
func (l *ladder) paired(calls int, nameA string, a func(uint64) error, nameB string, b func(uint64) error) (time.Duration, time.Duration, error) {
	var as, bs []float64
	for i := 0; i < calls; i++ {
		da, err := l.tr.timed(nameA, 0, a)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", nameA, err)
		}
		db, err := l.tr.timed(nameB, 0, b)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", nameB, err)
		}
		as, bs = append(as, float64(da)), append(bs, float64(db))
	}
	return time.Duration(median(as)), time.Duration(median(bs)), nil
}

// allocsOf counts the heap allocations of one call of fn.
func allocsOf(fn func() error) (float64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// climbLadder runs every rung and adds the per-layer metrics. With
// withExperiments it also times one traced experiments pass.
func climbLadder(ctx context.Context, res *result, tr *tracer, seed uint64, class string, nproc int, withExperiments bool) error {
	db, err := experiments.SBPDatabase(patients)
	if err != nil {
		return err
	}
	pid, _, err := sbpColumns(db)
	if err != nil {
		return err
	}
	f, err := startFixture([]string{ladderTenant}, 1, serverConfig(nproc), tr)
	if err != nil {
		return err
	}
	defer f.close()
	l := &ladder{tr: tr, class: class, nproc: nproc, seed: seed<<24 + 1<<50, f: f, db: db, sess: db.NewSession(), pid: pid}
	for _, rung := range []func(context.Context, *result) error{
		l.httpRung, l.serverRung, l.mcdbRung, l.sqlRung, l.desRung,
	} {
		if err := rung(ctx, res); err != nil {
			return err
		}
	}
	if withExperiments {
		p := pass(ctx, tr, newSpeedProbe(nproc))
		p.check(res)
		addExperimentTimes(res, p)
	}
	return nil
}

// coldQuery is a /v1/query request no cache has seen.
func (l *ladder) coldQuery() server.QueryRequest {
	return server.QueryRequest{Tenant: ladderTenant, Table: sbpTable, Col: "sbp", Fn: "avg",
		Iterations: iterations, Seed: l.fresh()}
}

// post sends one request through the fixture's client and returns the
// body size.
func (l *ladder) post(parent uint64, path string, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, l.f.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set(spanHeader, fmt.Sprint(parent))
	resp, err := l.f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, buf.String())
	}
	return buf.Len(), nil
}

// httpRung times the workload's request class over HTTP and through
// the Server method the handler calls; http.self_ms is the difference.
func (l *ladder) httpRung(ctx context.Context, res *result) error {
	calls := coldCalls
	var viaHTTP func(id uint64) (int, error)
	var direct func() error
	switch l.class {
	case classRepeat:
		calls = fastCalls
		q := l.coldQuery()
		if _, err := l.f.srv.Query(ctx, q); err != nil {
			return err
		}
		viaHTTP = func(id uint64) (int, error) { return l.post(id, "/v1/query", q) }
		direct = func() error { _, err := l.f.srv.Query(ctx, q); return err }
	case classSQL:
		sql := func() server.SQLRequest {
			return server.SQLRequest{Tenant: ladderTenant, SQL: joinSQL, Iterations: sqlIters, Seed: l.fresh()}
		}
		viaHTTP = func(id uint64) (int, error) { return l.post(id, "/v1/sql", sql()) }
		direct = func() error { _, err := l.f.srv.SQL(ctx, sql()); return err }
	default:
		viaHTTP = func(id uint64) (int, error) { return l.post(id, "/v1/query", l.coldQuery()) }
		direct = func() error { _, err := l.f.srv.Query(ctx, l.coldQuery()); return err }
	}
	size := 0
	h, d, err := l.paired(calls, "ladder.http", func(id uint64) error {
		n, err := viaHTTP(id)
		size = n
		return err
	}, "ladder.server", func(uint64) error { return direct() })
	if err != nil {
		return err
	}
	res.add("http.self_ms", ms(h-d), "ms")
	res.add("http.resp_kb", float64(size)/1024, "KB")
	return nil
}

// serverRung times Server.Query on a resident key, and a cold
// Server.Query against a cold Session.ExecRange.
func (l *ladder) serverRung(ctx context.Context, res *result) error {
	hot := l.coldQuery()
	if _, err := l.f.srv.Query(ctx, hot); err != nil {
		return err
	}
	hit, err := l.medianOf("server.query.hit", fastCalls, func(uint64) error {
		_, err := l.f.srv.Query(ctx, hot)
		return err
	})
	if err != nil {
		return err
	}
	q := mcdb.AggQuery{Table: sbpTable, Col: "sbp", Fn: engine.AggAvg}
	miss, exec, err := l.paired(coldCalls, "server.query.miss", func(uint64) error {
		_, err := l.f.srv.Query(ctx, l.coldQuery())
		return err
	}, "mcdb.exec_range", func(uint64) error {
		_, err := l.sess.ExecRange(ctx, q, mcdb.ExecOptions{Iterations: iterations, Seed: l.fresh(), Workers: l.nproc}, 0, iterations)
		return err
	})
	if err != nil {
		return err
	}
	res.add("server.hit_us", us(hit), "us")
	res.add("server.miss_self_ms", ms(miss-exec), "ms")
	return nil
}

// mcdbRung times realization, the bundle estimate, delta execution
// and Summarize.
func (l *ladder) mcdbRung(ctx context.Context, res *result) error {
	realize := func() error {
		_, err := l.db.InstantiateBundledCtx(ctx, iterations, l.fresh(), l.nproc)
		return err
	}
	d, err := l.medianOf("mcdb.realize", coldCalls, func(uint64) error { return realize() })
	if err != nil {
		return err
	}
	allocs, err := allocsOf(realize)
	if err != nil {
		return err
	}
	res.add("mcdb.realize_ms", ms(d), "ms")
	res.add("mcdb.realize_allocs", allocs, "count")

	bundles, err := l.db.InstantiateBundledCtx(ctx, iterations, l.fresh(), l.nproc)
	if err != nil {
		return err
	}
	bt := bundles[sbpTable]
	k := 0
	d, err = l.medianOf("mcdb.estimate", estCalls, func(uint64) error {
		k++
		limit := float64(20 + k%60)
		f := bt.FilterDet(func(r engine.Row) bool { return float64(r[l.pid].AsInt()) < limit })
		_, err := f.Estimate("sbp", engine.AggAvg, nil)
		return err
	})
	if err != nil {
		return err
	}
	res.add("mcdb.estimate_us", us(d), "us")

	opts := mcdb.ExecOptions{Iterations: iterations, Seed: l.fresh(), Workers: l.nproc}
	q := mcdb.AggQuery{Table: sbpTable, Col: "sbp", Fn: engine.AggAvg}
	samples, err := l.sess.Exec(ctx, q, opts) // makes the bundles resident
	if err != nil {
		return err
	}
	shift := 0.0
	d, err = l.medianOf("mcdb.delta", estCalls, func(uint64) error {
		shift += 1e-6
		s := shift
		delta := mcdb.Delta{Table: sbpTable, Where: func(r engine.Row) bool { return r[l.pid].AsInt()%10 == 3 },
			MapUnc: func(_ engine.Row, unc []float64) { unc[0] = unc[0]*1.1 + s }}
		_, err := l.sess.ExecDelta(ctx, q, opts, delta)
		return err
	})
	if err != nil {
		return err
	}
	res.add("mcdb.delta_ms", ms(d), "ms")

	d, err = l.medianOf("mcdb.summarize", fastCalls, func(uint64) error {
		_, err := mcdb.Summarize(samples)
		return err
	})
	if err != nil {
		return err
	}
	res.add("mcdb.summarize_us", us(d), "us")
	return nil
}

// sqlRung times the SQL path: naive instantiation, the prepared
// statement, and one iteration split into its two calls.
func (l *ladder) sqlRung(ctx context.Context, res *result) error {
	d, err := l.medianOf("mcdb.exec_sql", coldCalls, func(uint64) error {
		_, err := l.sess.ExecSQLRange(ctx, joinSQL, mcdb.ExecOptions{Iterations: sqlIters, Seed: l.fresh(), Workers: l.nproc}, 0, sqlIters)
		return err
	})
	if err != nil {
		return err
	}
	res.add("mcdb.exec_sql_ms", ms(d), "ms")

	d, err = l.medianOf("engine.prepare", fastCalls, func(uint64) error {
		_, err := engine.Prepare(joinSQL)
		return err
	})
	if err != nil {
		return err
	}
	res.add("engine.prepare_us", us(d), "us")

	p, err := engine.Prepare(joinSQL)
	if err != nil {
		return err
	}
	var inst, scalar []float64
	for i := 0; i < instCalls; i++ {
		var db *engine.Database
		_, err := l.tr.timed("sql.iteration", 0, func(id uint64) error {
			di, err := l.tr.timed("mcdb.instantiate", id, func(uint64) error {
				var err error
				db, err = l.db.Instantiate(rng.New(l.fresh()))
				return err
			})
			if err != nil {
				return err
			}
			ds, err := l.tr.timed("engine.scalar", id, func(uint64) error {
				_, err := p.Scalar(db)
				return err
			})
			inst, scalar = append(inst, float64(di)), append(scalar, float64(ds))
			return err
		})
		if err != nil {
			return err
		}
	}
	db, err := l.db.Instantiate(rng.New(l.fresh()))
	if err != nil {
		return err
	}
	allocs, err := allocsOf(func() error { _, err := p.Scalar(db); return err })
	if err != nil {
		return err
	}
	res.add("mcdb.instantiate_ms", ms(time.Duration(median(inst))), "ms")
	res.add("engine.scalar_us", us(time.Duration(median(scalar))), "us")
	res.add("engine.scalar_allocs", allocs, "count")
	return nil
}

// desRung times des.SimulateQueue on the input E17 feeds it: 100
// Poisson arrivals at rate 0.9, exponential service at rate 1.
func (l *ladder) desRung(_ context.Context, res *result) error {
	r := rng.New(l.fresh())
	arrivals := make([][]float64, queueCalls)
	for i := range arrivals {
		arrivals[i] = des.PoissonArrivals(100, 0.9, r)
	}
	i := 0
	d, err := l.medianOf("des.queue", queueCalls, func(uint64) error {
		_, err := des.SimulateQueue(arrivals[i], rng.ExponentialDist{Rate: 1}, 100, r)
		i++
		return err
	})
	if err != nil {
		return err
	}
	allocs, err := allocsOf(func() error {
		_, err := des.SimulateQueue(arrivals[0], rng.ExponentialDist{Rate: 1}, 100, r)
		return err
	})
	if err != nil {
		return err
	}
	res.add("des.queue_us", us(d), "us")
	res.add("des.queue_allocs", allocs, "count")
	return nil
}
