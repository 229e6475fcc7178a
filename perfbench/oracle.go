package main

// The answer oracle. After the timed phases, every kept answer of the
// seeded sample is recomputed with a plain mcdb.Session at the
// response's effective_seed and must match bit for bit: aggregate
// answers against Session.Exec, what-if answers against
// Session.ExecDelta on a fresh session, SQL answers against
// Session.ExecSQL. Cached answers were already compared, as they
// arrived, with the first answer for their key.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
	"modeldata/internal/server"
)

// maxChecks bounds the oracle's recomputations per request class.
const maxChecks = 12

type oracle struct {
	db      *mcdb.DB
	sess    *mcdb.Session
	pid     int
	gender  int
	checked map[string]int
	bad     []string
}

func newOracle() (*oracle, error) {
	db, err := experiments.SBPDatabase(patients)
	if err != nil {
		return nil, err
	}
	pid, gender, err := sbpColumns(db)
	if err != nil {
		return nil, err
	}
	return &oracle{db: db, sess: db.NewSessionCache(hotPerTenant), pid: pid, gender: gender,
		checked: map[string]int{}}, nil
}

// sbpColumns returns the positions of pid and gender in sbp_data.
func sbpColumns(db *mcdb.DB) (pid, gender int, err error) {
	spec, err := db.Spec(sbpTable)
	if err != nil {
		return 0, 0, err
	}
	if pid, err = spec.Schema.ColIndex("pid"); err != nil {
		return 0, 0, err
	}
	gender, err = spec.Schema.ColIndex("gender")
	return pid, gender, err
}

// verify checks the kept answers of one phase.
func (o *oracle) verify(ctx context.Context, ops []op, kept [][]byte) {
	for i := range ops {
		if kept[i] == nil || o.checked[ops[i].class] >= maxChecks {
			continue
		}
		o.checked[ops[i].class]++
		if err := o.check(ctx, &ops[i], kept[i]); err != nil {
			o.bad = append(o.bad, fmt.Sprintf("%s request %d: %v", ops[i].class, i, err))
		}
	}
}

// requireEveryClass records a failure for every request class the
// phases sent of which no answer was checked.
func (o *oracle) requireEveryClass(phases ...[]op) {
	var classes []string
	seen := map[string]bool{}
	for _, ops := range phases {
		for _, op := range ops {
			if !seen[op.class] {
				seen[op.class] = true
				classes = append(classes, op.class)
			}
		}
	}
	for _, c := range classes {
		if o.checked[c] == 0 {
			o.bad = append(o.bad, fmt.Sprintf("no %s answer was checked", c))
		}
	}
}

func (o *oracle) check(ctx context.Context, op *op, body []byte) error {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if resp.NextOffset != -1 {
		return fmt.Errorf("answer is paged (next_offset %d)", resp.NextOffset)
	}
	opts := mcdb.ExecOptions{Seed: resp.EffectiveSeed}
	var want []float64
	var err error
	switch {
	case op.sql != nil:
		opts.Iterations = op.sql.Iterations
		want, err = o.sess.ExecSQL(ctx, op.sql.SQL, opts)
	case op.q.WhatIf != nil:
		opts.Iterations = op.q.Iterations
		var q mcdb.AggQuery
		var d mcdb.Delta
		if q, err = o.aggQuery(op.q); err == nil {
			if d, err = o.delta(op.q.WhatIf); err == nil {
				want, err = o.db.NewSession().ExecDelta(ctx, q, opts, d)
			}
		}
	default:
		opts.Iterations = op.q.Iterations
		var q mcdb.AggQuery
		if q, err = o.aggQuery(op.q); err == nil {
			want, err = o.sess.Exec(ctx, q, opts)
		}
	}
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	if err := sameBits(resp.Samples, want); err != nil {
		return err
	}
	est, err := mcdb.Summarize(want)
	if err != nil {
		return err
	}
	got := resp.Summary
	if got.N != est.N || !sameFloat(got.Mean, est.Mean) || !sameFloat(got.Variance, est.Variance) ||
		!sameFloat(got.CI95, est.CI95) || !sameFloat(got.Median, est.Quantiles[0.5]) {
		return fmt.Errorf("summary %+v does not summarize the samples", got)
	}
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d samples, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			return fmt.Errorf("sample %d is %v, oracle has %v", i, got[i], want[i])
		}
	}
	return nil
}

// aggQuery writes the request as the library query it asks for. The
// predicates are the few forms the generator sends, read directly off
// the SBP schema.
func (o *oracle) aggQuery(r *server.QueryRequest) (mcdb.AggQuery, error) {
	q := mcdb.AggQuery{Table: r.Table, Col: r.Col}
	switch r.Fn {
	case "count":
		q.Fn = engine.AggCount
	case "sum":
		q.Fn = engine.AggSum
	case "avg":
		q.Fn = engine.AggAvg
	default:
		return q, fmt.Errorf("aggregate %q", r.Fn)
	}
	if len(r.Where) > 0 {
		where, err := o.detWhere(r.Where)
		if err != nil {
			return q, err
		}
		q.WhereDet = where
	}
	return q, nil
}

func (o *oracle) detWhere(preds []server.Predicate) (func(engine.Row) bool, error) {
	var fs []func(engine.Row) bool
	for _, p := range preds {
		p := p
		switch {
		case p.Col == "pid" && p.Op == "lt":
			fs = append(fs, func(r engine.Row) bool { return float64(r[o.pid].AsInt()) < p.Value })
		case p.Col == "pid" && p.Op == "eq":
			fs = append(fs, func(r engine.Row) bool { return float64(r[o.pid].AsInt()) == p.Value })
		case p.Col == "gender" && p.Op == "eq" && p.Str != nil:
			fs = append(fs, func(r engine.Row) bool { return r[o.gender].AsString() == *p.Str })
		default:
			return nil, fmt.Errorf("predicate %+v outside the generator's forms", p)
		}
	}
	return func(r engine.Row) bool {
		for _, f := range fs {
			if !f(r) {
				return false
			}
		}
		return true
	}, nil
}

// delta is the what-if as an mcdb.Delta: new sbp = sbp*scale + shift
// for the selected patients.
func (o *oracle) delta(w *server.WhatIf) (mcdb.Delta, error) {
	where, err := o.detWhere(w.Where)
	if err != nil {
		return mcdb.Delta{}, err
	}
	scale, shift := w.Scale, w.Shift
	return mcdb.Delta{Table: sbpTable, Where: where,
		MapUnc: func(_ engine.Row, unc []float64) { unc[0] = unc[0]*scale + shift }}, nil
}
