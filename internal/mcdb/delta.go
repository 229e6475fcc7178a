package mcdb

// Lineage-driven delta re-realization. A what-if experiment — "re-run
// this query with a revised VG function for one customer segment" —
// does not need to pay for a full Monte Carlo run: the baseline bundle
// realization already records, per tuple and per iteration, every value
// the query could read. ExecDelta re-samples only the tuples the change
// touches (on the exact substreams the full realization would hand
// them, so the merged bundle is bit-identical to a from-scratch
// realization of the changed database), then compares old and new
// bundles to find the iterations whose samples can differ. Clean
// iterations reuse the baseline sample verbatim; only dirty ones are
// re-aggregated. The dirtiness test is a value comparison restricted to
// the query's lineage — the tuples that pass WhereDet — which is the
// same per-iteration provenance ExecLineage reports.

import (
	"context"
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
	"modeldata/internal/prov"
	"modeldata/internal/rng"
)

// Metric names reported by delta execution into the per-run registry.
const (
	// MetricDeltaItersSkipped counts Monte Carlo iterations whose
	// samples ExecDelta reused from the baseline bundles instead of
	// recomputing — the saving of delta re-realization.
	MetricDeltaItersSkipped = "mcdb.delta_iters_skipped"
	// MetricDeltaTuplesRerealized counts tuples re-sampled under the
	// changed specification.
	MetricDeltaTuplesRerealized = "mcdb.delta_tuples_rerealized"
)

// Delta describes a hypothetical change to one stochastic table: a
// replacement VG function and/or parameter query for the tuples Where
// selects, or — when both are nil — a MapUnc transform applied directly
// to the realized uncertain values (no VG calls at all, the cheapest
// what-if). Exactly the spec fields named here change; everything else
// (schema, FOR EACH loop, output assembly) is taken from the registered
// TableSpec.
type Delta struct {
	// Table names the stochastic table the change applies to.
	Table string
	// VG, when non-nil, replaces the spec's VG function.
	VG VG
	// Params, when non-nil, replaces the spec's parameter query.
	Params func(db *engine.Database, outer engine.Row) (engine.Row, error)
	// Where selects the affected tuples by their deterministic
	// attributes (uncertain positions hold zero Values). A nil Where
	// affects every tuple.
	Where func(det engine.Row) bool
	// MapUnc, when non-nil, transforms a tuple's realized uncertain
	// values in place (ordered as the spec's UncertainCols), once per
	// iteration — e.g. scale a demand column by 1.1. It requires VG and
	// Params to be nil: it edits realizations instead of re-sampling.
	MapUnc func(det engine.Row, unc []float64)
}

// ExecDelta answers q against the database as modified by d, reusing
// the baseline bundle realization wherever the change cannot have
// altered the answer. The returned samples are bit-identical to
// registering the modified spec in a fresh DB and running Exec with the
// same options — at any worker count — because affected tuples are
// re-sampled on the exact per-tuple substreams the full realization
// derives from (seed, spec order, tuple index). Iterations whose
// samples were reused are counted under MetricDeltaItersSkipped;
// re-sampled tuples under MetricDeltaTuplesRerealized.
func (s *Session) ExecDelta(ctx context.Context, q AggQuery, opts ExecOptions, d Delta) ([]float64, error) {
	return s.ExecDeltaRange(ctx, q, opts, d, 0, opts.Iterations)
}

// ExecDeltaRange is ExecDelta restricted to the iteration window
// [lo, hi) — the sharding primitive, with the same concatenation
// bit-identity guarantee as ExecRange. Skipped-iteration accounting
// covers the full Iterations run (the realization is per-tuple, not
// per-window), so shards report consistent counter values.
func (s *Session) ExecDeltaRange(ctx context.Context, q AggQuery, opts ExecOptions, d Delta, lo, hi int) ([]float64, error) {
	if opts.Iterations <= 0 {
		return nil, fmt.Errorf("mcdb: iters=%d", opts.Iterations)
	}
	if lo < 0 || hi > opts.Iterations || lo > hi {
		return nil, fmt.Errorf("mcdb: window [%d, %d) outside [0, %d)", lo, hi, opts.Iterations)
	}
	switch q.Fn {
	case engine.AggCount, engine.AggSum, engine.AggAvg:
	default:
		return nil, fmt.Errorf("mcdb: aggregate %v not supported by ExecDelta", q.Fn)
	}
	if d.Table == "" {
		return nil, fmt.Errorf("%w: delta names no table", ErrBadSpec)
	}
	if d.MapUnc != nil && (d.VG != nil || d.Params != nil) {
		return nil, fmt.Errorf("%w: delta MapUnc cannot combine with a VG or Params change", ErrBadSpec)
	}
	if opts.Strategy == StrategyNaive {
		return nil, fmt.Errorf("mcdb: delta execution requires the bundle strategy")
	}
	qspec, err := s.db.Spec(q.Table)
	if err != nil {
		return nil, err
	}
	if len(qspec.UncertainCols) == 0 {
		return nil, fmt.Errorf("%w: %q has no UncertainCols for bundled execution", ErrBadSpec, q.Table)
	}
	dspec, err := s.db.Spec(d.Table)
	if err != nil {
		return nil, err
	}
	if len(dspec.UncertainCols) == 0 {
		return nil, fmt.Errorf("%w: %q has no UncertainCols for bundled execution", ErrBadSpec, d.Table)
	}

	ctx, span := obs.Start(ctx, "mcdb.exec_delta")
	span.SetAttr("table", q.Table)
	span.SetAttr("delta_table", d.Table)
	span.SetInt("iterations", int64(opts.Iterations))
	defer span.End()

	old, err := s.bundlesFor(ctx, opts)
	if err != nil {
		return nil, err
	}
	reg := parallel.StatsFrom(ctx).Registry()
	oldBt, ok := old[q.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSpec, q.Table)
	}

	if d.Table != q.Table {
		// The change touches a different stochastic table, so this
		// query's bundle — and every sample — is untouched.
		reg.Counter(MetricDeltaItersSkipped).Add(int64(opts.Iterations))
		span.SetInt("iters_skipped", int64(opts.Iterations))
		return estimateWindow(oldBt, q, lo, hi)
	}

	affected := make([]int, 0, len(oldBt.Det))
	for ti, det := range oldBt.Det {
		if d.Where == nil || d.Where(det) {
			affected = append(affected, ti)
		}
	}
	newBt, detChanged, err := s.rerealize(ctx, dspec, oldBt, d, affected, opts)
	if err != nil {
		return nil, err
	}
	reg.Counter(MetricDeltaTuplesRerealized).Add(int64(len(affected)))
	span.SetInt("tuples_rerealized", int64(len(affected)))

	dirty, dirtyCount := markDirty(q, oldBt, newBt, affected, detChanged, opts.Iterations)
	skipped := opts.Iterations - dirtyCount
	reg.Counter(MetricDeltaItersSkipped).Add(int64(skipped))
	span.SetInt("iters_skipped", int64(skipped))

	newF := newBt
	if q.WhereDet != nil {
		newF = newBt.FilterDet(q.WhereDet)
	}
	if dirtyCount == opts.Iterations {
		full, err := newF.Estimate(q.Col, q.Fn, q.WhereUnc)
		if err != nil {
			return nil, err
		}
		return window(full, lo, hi), nil
	}
	oldF := oldBt
	if q.WhereDet != nil {
		oldF = oldBt.FilterDet(q.WhereDet)
	}
	out, err := oldF.Estimate(q.Col, q.Fn, q.WhereUnc)
	if err != nil {
		return nil, err
	}
	if dirtyCount > 0 {
		dvals, err := estimateDirty(newF, q.Col, q.Fn, q.WhereUnc, dirty)
		if err != nil {
			return nil, err
		}
		for it, isDirty := range dirty {
			if isDirty {
				out[it] = dvals[it]
			}
		}
	}
	return window(out, lo, hi), nil
}

// rerealize builds the changed-world bundle for one spec: unaffected
// tuples share the baseline's Det rows and Unc arrays, affected tuples
// are re-sampled (or value-transformed for a MapUnc delta). The second
// result marks, per affected tuple, whether its deterministic
// attributes changed — which forces every iteration dirty, because
// WhereDet membership may differ.
func (s *Session) rerealize(ctx context.Context, spec *TableSpec, old *BundleTable, d Delta, affected []int, opts ExecOptions) (*BundleTable, []bool, error) {
	nb := &BundleTable{
		Name:          old.Name,
		Schema:        old.Schema.Clone(),
		Iters:         old.Iters,
		UncertainCols: append([]int(nil), old.UncertainCols...),
		Det:           append([]engine.Row(nil), old.Det...),
		Unc:           append([][][]float64(nil), old.Unc...),
	}
	detChanged := make([]bool, len(affected))
	if len(affected) == 0 {
		return nb, detChanged, nil
	}
	if d.MapUnc != nil {
		// Value transform: no VG calls, no randomness — edit copies of
		// the affected tuples' realized arrays in place.
		uncBuf := make([]float64, len(nb.UncertainCols))
		for _, ti := range affected {
			src := old.Unc[ti]
			unc := newUnc(len(src), nb.Iters)
			for k := range src {
				copy(unc[k], src[k])
			}
			for it := 0; it < nb.Iters; it++ {
				for k := range uncBuf {
					uncBuf[k] = unc[k][it]
				}
				d.MapUnc(old.Det[ti], uncBuf)
				for k := range uncBuf {
					unc[k][it] = uncBuf[k]
				}
			}
			nb.Unc[ti] = unc
		}
		return nb, detChanged, nil
	}
	// VG or Params changed: re-sample the affected tuples with the same
	// kernel on the exact substreams the full realization derives —
	// seed → one Split per spec in registration order
	// (InstantiateBundledCtx) → one SplitN child per tuple in tuple
	// order (parallel.ForStreams inside bundleSpec) — so the merged
	// bundle is bit-identical to realizing the changed database from
	// scratch.
	outers, err := s.db.outerRows(spec)
	if err != nil {
		return nil, nil, err
	}
	if len(outers) != old.Len() {
		return nil, nil, fmt.Errorf("mcdb: base table behind %q changed since realization (%d outer rows, bundle has %d tuples)",
			spec.Name, len(outers), old.Len())
	}
	st := s.db.specStream(spec, opts.Seed)
	if st == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSpec, spec.Name)
	}
	subs := st.SplitN(len(outers))
	k := s.db.newKernel(spec, nb.Iters, d.VG, d.Params)
	err = parallel.For(ctx, len(affected), parallel.Options{Workers: opts.Workers}, func(j int) error {
		ti := affected[j]
		tr := *subs[ti] // pristine copy, as parallel.ForStreams hands bundleSpec
		det, unc, err := k.bundleTuple(outers[ti], &tr)
		if err != nil {
			return err
		}
		nb.Det[ti], nb.Unc[ti] = det, unc
		detChanged[j] = !rowsEqual(det, old.Det[ti])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return nb, detChanged, nil
}

// specStream replays the split trajectory of InstantiateBundledCtx up
// to the target spec, returning the exact stream bundleSpec received
// for it, or nil if the spec is not registered.
func (db *DB) specStream(target *TableSpec, seed uint64) *rng.Stream {
	r := rng.New(seed)
	for _, sp := range db.specs {
		st := r.Split()
		if sp == target {
			return st
		}
	}
	return nil
}

// markDirty flags the iterations whose samples can differ between the
// baseline and changed bundles: those where some query-relevant
// affected tuple carries different uncertain values. Bitwise equality
// decides reuse — if every value an iteration can read is unchanged,
// the aggregate (accumulated in the same tuple order) is unchanged too.
// A deterministic-attribute change forces every iteration dirty, since
// the tuple's WhereDet membership itself may have flipped.
func markDirty(q AggQuery, old, nb *BundleTable, affected []int, detChanged []bool, iters int) ([]bool, int) {
	dirty := make([]bool, iters)
	count := 0
	for idx, ti := range affected {
		if q.WhereDet != nil && !q.WhereDet(old.Det[ti]) && !q.WhereDet(nb.Det[ti]) {
			continue // the query never sees this tuple, old world or new
		}
		if detChanged[idx] {
			for it := range dirty {
				dirty[it] = true
			}
			return dirty, iters
		}
		ou, nu := old.Unc[ti], nb.Unc[ti]
		for it := 0; it < iters; it++ {
			if dirty[it] {
				continue
			}
			for k := range ou {
				if ou[k][it] != nu[k][it] { //lint:allow floateq bitwise sameness is exactly what decides sample reuse
					dirty[it] = true
					count++
					break
				}
			}
		}
	}
	return dirty, count
}

// estimateDirty is BundleTable.Estimate restricted to the flagged
// iterations. Tuples accumulate in the same order as a full Estimate,
// so the values at dirty positions are bitwise what Estimate would
// produce there; positions not flagged are left zero and must not be
// read. The empty-selection AVG = 0 convention carries over unchanged.
func estimateDirty(bt *BundleTable, col string, fn engine.AggFunc, pred UncPredicate, dirty []bool) ([]float64, error) {
	schemaIdx, err := bt.Schema.ColIndex(col)
	if err != nil {
		return nil, err
	}
	k, ok := bt.uncPos(schemaIdx)
	if !ok {
		return nil, fmt.Errorf("mcdb: column %q is not uncertain in %q", col, bt.Name)
	}
	idx := make([]int, 0, len(dirty))
	for it, isDirty := range dirty {
		if isDirty {
			idx = append(idx, it)
		}
	}
	sums := make([]float64, bt.Iters)
	counts := make([]float64, bt.Iters)
	uncBuf := make([]float64, len(bt.UncertainCols))
	for i := range bt.Det {
		unc := bt.Unc[i]
		for _, it := range idx {
			if pred != nil {
				for kk := range uncBuf {
					uncBuf[kk] = unc[kk][it]
				}
				if !pred(bt.Det[i], uncBuf) {
					continue
				}
			}
			sums[it] += unc[k][it]
			counts[it]++
		}
	}
	out := make([]float64, bt.Iters)
	switch fn {
	case engine.AggCount:
		copy(out, counts)
	case engine.AggSum:
		copy(out, sums)
	case engine.AggAvg:
		for _, it := range idx {
			// Empty selection: AVG is 0 by convention (see Session.Exec).
			if counts[it] > 0 {
				out[it] = sums[it] / counts[it]
			}
		}
	default:
		return nil, fmt.Errorf("mcdb: bundle aggregate %v not supported", fn)
	}
	return out, nil
}

// estimateWindow runs the standard bundle pipeline (FilterDet →
// Estimate → window) over one bundle table.
func estimateWindow(bt *BundleTable, q AggQuery, lo, hi int) ([]float64, error) {
	if q.WhereDet != nil {
		bt = bt.FilterDet(q.WhereDet)
	}
	full, err := bt.Estimate(q.Col, q.Fn, q.WhereUnc)
	if err != nil {
		return nil, err
	}
	return window(full, lo, hi), nil
}

// window slices the full sample vector to [lo, hi), avoiding a copy
// when the window covers everything.
func window(full []float64, lo, hi int) []float64 {
	if lo == 0 && hi == len(full) {
		return full
	}
	return append([]float64(nil), full[lo:hi]...)
}

// rowsEqual reports exact Value-level equality of two rows.
func rowsEqual(a, b engine.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ExecLineage returns, for every Monte Carlo iteration of q, the
// why-provenance of that iteration's sample: the stochastic-table
// tuples (prov.Leaf values whose Row is the tuple's index in the
// realized table) that passed both predicates and therefore contributed
// to the aggregate. Lineage sets are interned in a prov.Arena, so
// iterations with identical lineage share one slice. This is the
// Monte Carlo counterpart of engine-level Query.WithProvenance, and the
// set ExecDelta's dirty-iteration test restricts its value comparison
// to.
func (s *Session) ExecLineage(ctx context.Context, q AggQuery, opts ExecOptions) ([][]prov.Leaf, error) {
	if opts.Iterations <= 0 {
		return nil, fmt.Errorf("mcdb: iters=%d", opts.Iterations)
	}
	spec, err := s.db.Spec(q.Table)
	if err != nil {
		return nil, err
	}
	if len(spec.UncertainCols) == 0 {
		return nil, fmt.Errorf("%w: %q has no UncertainCols for bundled execution", ErrBadSpec, q.Table)
	}
	ctx, span := obs.Start(ctx, "mcdb.lineage")
	span.SetAttr("table", q.Table)
	span.SetInt("iterations", int64(opts.Iterations))
	defer span.End()
	bundles, err := s.bundlesFor(ctx, opts)
	if err != nil {
		return nil, err
	}
	bt, ok := bundles[q.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSpec, q.Table)
	}
	arena := prov.NewArena()
	memo := make(map[prov.Set][]prov.Leaf)
	out := make([][]prov.Leaf, bt.Iters)
	uncBuf := make([]float64, len(bt.UncertainCols))
	leaves := make([]prov.Leaf, 0, bt.Len())
	for it := 0; it < bt.Iters; it++ {
		leaves = leaves[:0]
		for ti := range bt.Det {
			if q.WhereDet != nil && !q.WhereDet(bt.Det[ti]) {
				continue
			}
			if q.WhereUnc != nil {
				unc := bt.Unc[ti]
				for k := range uncBuf {
					uncBuf[k] = unc[k][it]
				}
				if !q.WhereUnc(bt.Det[ti], uncBuf) {
					continue
				}
			}
			leaves = append(leaves, prov.Leaf{Table: q.Table, Row: ti})
		}
		set := arena.SetOf(leaves)
		ls, ok := memo[set]
		if !ok {
			ls = arena.Leaves(set)
			memo[set] = ls
		}
		out[it] = ls
	}
	return out, nil
}
