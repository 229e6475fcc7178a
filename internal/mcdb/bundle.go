package mcdb

import (
	"context"
	"fmt"
	"sync"

	"modeldata/internal/engine"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// BundleTable is a stochastic table materialized as tuple bundles: the
// plan-once execution strategy of MCDB (§2.1). Each tuple stores its
// deterministic attributes exactly once; each uncertain attribute
// stores its instantiations across all Monte Carlo iterations.
type BundleTable struct {
	Name   string
	Schema engine.Schema
	Iters  int
	// UncertainCols are the schema indexes carried per iteration.
	UncertainCols []int
	// Det holds the deterministic attributes of each tuple; uncertain
	// positions hold the zero Value and must not be read.
	Det []engine.Row
	// Unc[tuple][k][iter] is the value of the k-th uncertain column of
	// the tuple at the given Monte Carlo iteration.
	Unc [][][]float64

	// detOnce caches the columnar decode of Det — the deterministic
	// attributes convert to column vectors once, then every Realize call
	// only patches the uncertain columns. Guarded by sync.Once so
	// concurrent Realize calls share one decode.
	detOnce  sync.Once
	detBlock *engine.ColumnBlock
	detErr   error
}

// uncPos maps schema index → position within the bundle's uncertain
// column list.
func (bt *BundleTable) uncPos(schemaIdx int) (int, bool) {
	for k, c := range bt.UncertainCols {
		if c == schemaIdx {
			return k, true
		}
	}
	return 0, false
}

// InstantiateBundled realizes every stochastic table as a BundleTable
// with iters Monte Carlo instantiations per uncertain cell on the
// default worker pool. See InstantiateBundledCtx.
func (db *DB) InstantiateBundled(iters int, seed uint64) (map[string]*BundleTable, error) {
	return db.InstantiateBundledCtx(context.Background(), iters, seed, 0)
}

// InstantiateBundledCtx realizes every stochastic table as a
// BundleTable with iters Monte Carlo instantiations per uncertain
// cell. The outer FOR EACH loop, parameter queries, and row assembly
// run once; only the VG sampling repeats per iteration — this is the
// tuple-bundle optimization. Tuples fan out over the parallel runtime
// with one substream per tuple (split in tuple order), so the realized
// bundles are bit-identical at any worker count. Spec Params and VG
// hooks must be safe for concurrent calls with distinct streams; every
// hook in this repository is.
func (db *DB) InstantiateBundledCtx(ctx context.Context, iters int, seed uint64, workers int) (map[string]*BundleTable, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("mcdb: iters=%d", iters)
	}
	ctx, span := obs.Start(ctx, "mcdb.instantiate_bundled")
	span.SetInt("iters", int64(iters))
	span.SetInt("tables", int64(len(db.specs)))
	defer span.End()
	r := rng.New(seed)
	out := make(map[string]*BundleTable, len(db.specs))
	for _, spec := range db.specs {
		bt, err := db.bundleSpec(ctx, spec, iters, r.Split(), workers)
		if err != nil {
			return nil, err
		}
		out[spec.Name] = bt
	}
	return out, nil
}

func (db *DB) bundleSpec(ctx context.Context, spec *TableSpec, iters int, r *rng.Stream, workers int) (*BundleTable, error) {
	if len(spec.UncertainCols) == 0 {
		return nil, fmt.Errorf("%w: %q has no UncertainCols for bundled execution", ErrBadSpec, spec.Name)
	}
	outers, err := db.outerRows(spec)
	if err != nil {
		return nil, err
	}
	bt := &BundleTable{
		Name:          spec.Name,
		Schema:        spec.Schema.Clone(),
		Iters:         iters,
		UncertainCols: append([]int(nil), spec.UncertainCols...),
		Det:           make([]engine.Row, len(outers)),
		Unc:           make([][][]float64, len(outers)),
	}
	k := db.newKernel(spec, iters, nil, nil)
	err = parallel.ForStreams(ctx, r, len(outers), parallel.Options{Workers: workers},
		func(ti int, tr *rng.Stream) error {
			det, unc, err := k.bundleTuple(outers[ti], tr)
			if err != nil {
				return err
			}
			bt.Det[ti], bt.Unc[ti] = det, unc
			return nil
		})
	if err != nil {
		return nil, err
	}
	return bt, nil
}

// tupleKernel realizes single tuples of one spec as bundles. Everything
// that does not vary by tuple is resolved once, when it is built.
type tupleKernel struct {
	db     *DB
	spec   *TableSpec
	iters  int
	params func(db *engine.Database, outer engine.Row) (engine.Row, error)
	// Exactly one of batch and vg is set: the spec's Batch when it has
	// one and no replacement VG was given, else the VG to adapt.
	batch BatchVG
	vg    VG
}

// newKernel builds the kernel for spec. A non-nil vg or params replaces
// the spec's own (a what-if Delta); a replacement VG has no batch form,
// so it always runs through the legacy adapter.
func (db *DB) newKernel(spec *TableSpec, iters int, vg VG, params func(*engine.Database, engine.Row) (engine.Row, error)) *tupleKernel {
	k := &tupleKernel{db: db, spec: spec, iters: iters, params: spec.Params, vg: vg}
	if params != nil {
		k.params = params
	}
	if vg == nil {
		if spec.Batch != nil {
			k.batch = spec.Batch
		} else {
			k.vg = spec.VG
		}
	}
	return k
}

// newUnc allocates a tuple's uncertain arrays: one flat backing array
// cut into per-column slices whose capacity ends at the column, so an
// append to one column can never overwrite the next.
func newUnc(cols, iters int) [][]float64 {
	flat := make([]float64, cols*iters)
	unc := make([][]float64, cols)
	for k := range unc {
		unc[k] = flat[k*iters : (k+1)*iters : (k+1)*iters]
	}
	return unc
}

// bundleTuple is the per-tuple bundle kernel shared by full realization
// (bundleSpec) and what-if re-realization (rerealize): it resolves the
// parameter row once, then fills the tuple's uncertain values for every
// iteration from its substream r. It returns the tuple's deterministic
// row (uncertain positions hold zero Values) and its Unc arrays.
func (k *tupleKernel) bundleTuple(outer engine.Row, r *rng.Stream) (engine.Row, [][]float64, error) {
	params, err := k.db.vgParams(k.params, outer)
	if err != nil {
		return nil, nil, err
	}
	spec := k.spec
	unc := newUnc(len(spec.UncertainCols), k.iters)
	if k.batch == nil {
		det, err := k.adaptVG(outer, params, r, unc)
		return det, unc, err
	}
	// validate guarantees the uncertain columns are the trailing ones,
	// so the batch fills exactly what a VG would append to outer.
	if len(outer)+len(unc) != len(spec.Schema) {
		return nil, nil, fmt.Errorf("%w: %q produced %d values, schema has %d",
			ErrBadSpec, spec.Name, len(outer)+len(unc), len(spec.Schema))
	}
	if err = k.batch(params, r, unc); err != nil {
		return nil, nil, err
	}
	det := make(engine.Row, len(spec.Schema))
	copy(det, outer)
	return det, unc, nil
}

// adaptVG is the one adapter from a row-at-a-time VG function to the
// bundle layout: it calls vg once per iteration and keeps the
// uncertain values as floats. With a nil OutputRow it reads each
// uncertain value by position from outer or the VG output and builds
// no row, so the VG's own result is its only allocation per iteration.
// The deterministic row comes from iteration 0.
func (k *tupleKernel) adaptVG(outer, params engine.Row, r *rng.Stream, unc [][]float64) (engine.Row, error) {
	spec := k.spec
	var det engine.Row
	for it := 0; it < k.iters; it++ {
		vgOut, err := k.vg(params, r)
		if err != nil {
			return nil, err
		}
		var row engine.Row
		width := len(outer) + len(vgOut)
		if spec.OutputRow != nil {
			row = spec.OutputRow(outer, vgOut)
			width = len(row)
		}
		if width != len(spec.Schema) {
			return nil, fmt.Errorf("%w: %q produced %d values, schema has %d",
				ErrBadSpec, spec.Name, width, len(spec.Schema))
		}
		if it == 0 {
			if row != nil {
				det = row.Clone()
			} else {
				det = make(engine.Row, 0, width)
				det = append(append(det, outer...), vgOut...)
			}
			for _, c := range spec.UncertainCols {
				det[c] = engine.Value{}
			}
		}
		for kk, c := range spec.UncertainCols {
			var v engine.Value
			switch {
			case row != nil:
				v = row[c]
			case c < len(outer):
				v = outer[c]
			default:
				v = vgOut[c-len(outer)]
			}
			if !v.IsNumeric() {
				return nil, fmt.Errorf("%w: %q uncertain column %d is %s, bundles require numeric",
					ErrBadSpec, spec.Name, c, v.Type())
			}
			unc[kk][it] = v.AsFloat()
		}
	}
	return det, nil
}

// Len returns the number of tuples in the bundle table.
func (bt *BundleTable) Len() int { return len(bt.Det) }

// FilterDet applies a selection on deterministic attributes once for
// all iterations — the core saving of tuple bundles. The predicate
// receives the deterministic row (uncertain positions are zero Values).
func (bt *BundleTable) FilterDet(pred func(det engine.Row) bool) *BundleTable {
	out := &BundleTable{
		Name:          bt.Name,
		Schema:        bt.Schema.Clone(),
		Iters:         bt.Iters,
		UncertainCols: bt.UncertainCols,
	}
	for i, det := range bt.Det {
		if pred(det) {
			out.Det = append(out.Det, det)
			out.Unc = append(out.Unc, bt.Unc[i])
		}
	}
	return out
}

// UncPredicate qualifies a tuple at one Monte Carlo iteration; unc
// holds the tuple's uncertain values (ordered as UncertainCols) at that
// iteration. A nil UncPredicate accepts every tuple.
type UncPredicate func(det engine.Row, unc []float64) bool

// Estimate scans the bundle table once and computes, per Monte Carlo
// iteration, the aggregate of the named uncertain column over tuples
// satisfying pred. The result is a sample of size Iters from the
// query-result distribution. Supported aggregates: COUNT, SUM, AVG.
//
// Iterations whose selection is empty (pred rejects every tuple)
// yield COUNT = 0, SUM = 0, and — by the repository-wide convention
// documented on Session.Exec — AVG = 0 rather than NaN, keeping the
// sample vector finite and bit-identical to the naive strategy.
func (bt *BundleTable) Estimate(col string, fn engine.AggFunc, pred UncPredicate) ([]float64, error) {
	schemaIdx, err := bt.Schema.ColIndex(col)
	if err != nil {
		return nil, err
	}
	k, ok := bt.uncPos(schemaIdx)
	if !ok {
		return nil, fmt.Errorf("mcdb: column %q is not uncertain in %q", col, bt.Name)
	}
	sums := make([]float64, bt.Iters)
	counts := make([]float64, bt.Iters)
	uncBuf := make([]float64, len(bt.UncertainCols))
	for i := range bt.Det {
		unc := bt.Unc[i]
		for it := 0; it < bt.Iters; it++ {
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
		for it := range out {
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

// Realize materializes the bundle table at a single Monte Carlo
// iteration as an ordinary engine table — useful for spot checks and
// for queries that the bundle executor does not cover. It is
// RealizeBlock converted to rows: the deterministic columns decode once
// per bundle table and each iteration only swaps in fresh uncertain
// vectors. A Det value its schema column cannot hold (engine.Table's
// insert rule: the exact type, or an int in a float column) makes it
// return engine.ErrMixedColumn.
func (bt *BundleTable) Realize(iter int) (*engine.Table, error) {
	b, err := bt.RealizeBlock(iter)
	if err != nil {
		return nil, err
	}
	return b.ToTable(), nil
}

// cachedDetBlock decodes the deterministic columns of Det into a
// ColumnBlock exactly once (uncertain positions stay zero-filled and
// are patched per iteration).
func (bt *BundleTable) cachedDetBlock() (*engine.ColumnBlock, error) {
	bt.detOnce.Do(func() {
		bt.detBlock, bt.detErr = engine.FromRowsPartial(bt.Name, bt.Schema, bt.Det, bt.UncertainCols)
	})
	return bt.detBlock, bt.detErr
}

// RealizeBlock materializes the bundle table at a single Monte Carlo
// iteration in columnar form: the cached deterministic block plus one
// freshly gathered vector per uncertain column. This is the batch
// analogue of the tuple-bundle argument — the per-tuple work that does
// not depend on the iteration happens once, not Iters times.
func (bt *BundleTable) RealizeBlock(iter int) (*engine.ColumnBlock, error) {
	if iter < 0 || iter >= bt.Iters {
		return nil, fmt.Errorf("mcdb: iteration %d outside [0, %d)", iter, bt.Iters)
	}
	b, err := bt.cachedDetBlock()
	if err != nil {
		return nil, err
	}
	for k, c := range bt.UncertainCols {
		var vec any
		if bt.Schema[c].Type == engine.TypeInt {
			ints := make([]int64, len(bt.Det))
			for i := range bt.Det {
				ints[i] = int64(bt.Unc[i][k][iter])
			}
			vec = ints
		} else {
			floats := make([]float64, len(bt.Det))
			for i := range bt.Det {
				floats[i] = bt.Unc[i][k][iter]
			}
			vec = floats
		}
		if b, err = b.WithColumn(c, vec); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// JoinDet equijoins the bundle table with a deterministic table on a
// deterministic bundle column — the common MCDB query shape where a
// stochastic table (e.g. random demand per customer) joins reference
// data (e.g. customer regions). Because the join key is deterministic,
// the join executes once for all Monte Carlo iterations: matching
// deterministic attributes are appended to each tuple's Det row and the
// uncertain arrays are shared unchanged. Tuples matching multiple
// rows of det are replicated (sharing their uncertain arrays).
func (bt *BundleTable) JoinDet(det *engine.Table, bundleCol, detCol string) (*BundleTable, error) {
	bIdx, err := bt.Schema.ColIndex(bundleCol)
	if err != nil {
		return nil, err
	}
	if _, isUnc := bt.uncPos(bIdx); isUnc {
		return nil, fmt.Errorf("mcdb: join key %q is uncertain; joins must use deterministic columns", bundleCol)
	}
	dIdx, err := det.ColIndex(detCol)
	if err != nil {
		return nil, err
	}
	// Hash the deterministic side. Keys are binary AppendKey encodings
	// built in a reused buffer; a key string is only interned when a new
	// distinct key enters the table.
	ht := make(map[string][]engine.Row, det.Len())
	var keyBuf []byte
	for _, row := range det.Rows {
		keyBuf = row[dIdx].AppendKey(keyBuf[:0])
		ht[string(keyBuf)] = append(ht[string(keyBuf)], row)
	}
	schema := bt.Schema.Clone()
	for _, c := range det.Schema {
		schema = append(schema, engine.Column{Name: det.Name + "." + c.Name, Type: c.Type})
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	out := &BundleTable{
		Name:          bt.Name + "_" + det.Name,
		Schema:        schema,
		Iters:         bt.Iters,
		UncertainCols: append([]int(nil), bt.UncertainCols...),
	}
	for i, d := range bt.Det {
		keyBuf = d[bIdx].AppendKey(keyBuf[:0])
		for _, match := range ht[string(keyBuf)] {
			nr := make(engine.Row, 0, len(d)+len(match))
			nr = append(nr, d...)
			nr = append(nr, match...)
			out.Det = append(out.Det, nr)
			out.Unc = append(out.Unc, bt.Unc[i])
		}
	}
	return out, nil
}
