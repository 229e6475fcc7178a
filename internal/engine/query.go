package engine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"modeldata/internal/engine/plan"
	"modeldata/internal/prov"
)

// Query is a fluent relational query builder over tables. Builder
// methods record operations; Run (or Count/ScalarFloat) executes them.
// Errors are detected eagerly — each method validates its arguments
// against the query's schema as it is called, and the first error is
// latched and returned by Run — so error behavior is identical to the
// historical eager builder.
//
//	q, err := engine.From(people).
//		WhereFloat("age", func(a float64) bool { return a < 5 }).
//		Select("pid").
//		Run()
//
// Every builder method returns a new Query and leaves its receiver
// unchanged, which makes saved prefixes branchable:
//
//	base := engine.From(people).WhereFloat("age", adult)
//	ids := base.Select("pid")     // does not affect base
//	n, _ := base.Count()          // still the un-projected prefix
//
// Execution runs over column blocks: the source table is decoded once
// (ErrMixedColumn if it holds a value its column cannot), every
// operation runs a columnar kernel, and Run materializes rows once at
// the end. When the planner is enabled (the default), Run lowers the
// query's scan/filter/join prefix into a logical plan
// (internal/engine/plan), pushes filters below joins, picks a join
// order and build sides by estimated cardinality, and executes the
// optimized plan; the rest of the query replays as written. The
// planner never changes results: planner-on output is byte-identical
// to planner-off output (planner_test.go). Explain returns the
// optimized plan without executing it. Each Run builds private
// execution state, so queries and their branches may run concurrently.
type Query struct {
	src  *Table
	ops  []*qop
	err  error
	mode plannerMode

	// store, when set by FromStorage, replaces src as the scan source:
	// execution streams the storage's partitions (zone-map pruned by
	// the query's leading filters) and replays the recorded operations
	// over the concatenated blocks.
	store Storage
	// ctx, when set by WithContext, flows into storage scans.
	ctx context.Context

	// budget and spillDir override the process-wide spill policy for
	// this query: budget 0 inherits SpillDefaults, < 0 forces
	// unlimited (never spill), > 0 is the hash-footprint budget in
	// bytes. spillDir "" inherits.
	budget   int64
	spillDir string

	// cache, when set by Prepared, memoizes the join-order choice
	// across executions of the same statement.
	cache *Prepared

	// provOn, set by WithProvenance, threads why-provenance
	// annotations through execution (see provexec.go).
	provOn bool

	// name and schema describe the query's current result shape,
	// maintained eagerly by every builder method.
	name   string
	schema Schema
}

// opKind enumerates recorded operations.
type opKind uint8

const (
	opFilter opKind = iota // inspectable plan.Expr filter
	opSelect
	opRename
	opJoin
	opGroupBy
	opOrderBy
	opDistinct
	opLimit
)

// qop is one recorded operation, together with the eagerly computed
// name and schema of the query state after it.
type qop struct {
	kind   opKind
	name   string
	schema Schema

	expr plan.Expr          // opFilter
	ffn  func(float64) bool // opFilter: WhereFloat closure (ColPred ref target)
	sfn  func(string) bool  // opFilter: WhereString closure

	cols []string // opSelect columns, opGroupBy keys

	oldName, newName string // opRename

	joinT        *Table // opJoin
	joinL, joinR string
	// joinFlat keeps left column names un-prefixed (SQL multi-join
	// naming); the default prefixes both sides, as the historical
	// builder always did.
	joinFlat bool

	aggs []Aggregate // opGroupBy

	col  string // opOrderBy
	desc bool

	n int // opLimit
}

// --- planner mode ---

type plannerMode uint8

const (
	plannerDefault plannerMode = iota
	plannerForceOn
	plannerForceOff
)

// plannerDisabled is the process-wide default, inverted so the zero
// value means "planner on".
var plannerDisabled atomic.Bool

// SetPlannerDefault sets the process-wide planner default (it starts
// enabled) and returns the previous setting. Per-query WithPlanner
// overrides it. The planner affects plan choice only, never results.
func SetPlannerDefault(on bool) bool {
	return !plannerDisabled.Swap(!on)
}

// WithPlanner forces the planner on or off for this query, overriding
// the process default.
func (q *Query) WithPlanner(on bool) *Query {
	nq := *q
	if on {
		nq.mode = plannerForceOn
	} else {
		nq.mode = plannerForceOff
	}
	return &nq
}

func (q *Query) plannerOn() bool {
	switch q.mode {
	case plannerForceOn:
		return true
	case plannerForceOff:
		return false
	}
	return !plannerDisabled.Load()
}

// --- building ---

// From starts a query over t.
func From(t *Table) *Query {
	return &Query{src: t, name: t.Name, schema: t.Schema}
}

// FromStorage starts a query over a storage backend. Execution scans
// the storage's partitions — letting it prune against the query's
// leading filters — and runs the same operators as From, so results
// are byte-identical to a query over the equivalent in-memory table
// (the storage-equivalence suite in internal/colstore enforces this).
// Storage queries execute directly: the join-region planner only
// reorders multi-table joins, whose right sides are in-memory tables
// either way.
func FromStorage(st Storage) *Query {
	return &Query{store: st, name: st.StorageName(), schema: st.StorageSchema()}
}

// WithContext attaches ctx to the query's storage scans; it has no
// effect on in-memory queries.
func (q *Query) WithContext(ctx context.Context) *Query {
	nq := *q
	nq.ctx = ctx
	return &nq
}

// WithMemoryBudget bounds the estimated hash-table footprint of this
// query's joins and group-bys to budget bytes; operators over it
// Grace-partition to disk (see spill.go) with byte-identical output.
// budget <= 0 forces unlimited, overriding the process default set by
// SetSpillDefault.
func (q *Query) WithMemoryBudget(budget int64) *Query {
	nq := *q
	if budget <= 0 {
		budget = -1
	}
	nq.budget = budget
	return &nq
}

// WithSpillDir directs this query's spill files to dir instead of the
// process default (the OS temp dir).
func (q *Query) WithSpillDir(dir string) *Query {
	nq := *q
	nq.spillDir = dir
	return &nq
}

// spillConfig resolves the query's effective spill policy against the
// process defaults.
func (q *Query) spillConfig() (int64, string) {
	budget, dir := SpillDefaults()
	if q.budget != 0 {
		budget = q.budget
		if budget < 0 {
			budget = 0
		}
	}
	if q.spillDir != "" {
		dir = q.spillDir
	}
	return budget, dir
}

// push appends op to a copy of q. The full slice expression pins the
// shared prefix's capacity so sibling branches never clobber each
// other's appends.
func (q *Query) push(op *qop) *Query {
	nq := *q
	nq.ops = append(q.ops[:len(q.ops):len(q.ops)], op)
	nq.name, nq.schema = op.name, op.schema
	return &nq
}

// fail latches an error.
func (q *Query) fail(err error) *Query {
	nq := *q
	nq.err = err
	return &nq
}

// colPredFns implements predFns: it recovers the opaque closures a
// plan.ColPred references by op index.
func (q *Query) colPredFns(ref int) (func(float64) bool, func(string) bool) {
	if ref < 0 || ref >= len(q.ops) {
		return nil, nil
	}
	return q.ops[ref].ffn, q.ops[ref].sfn
}

// WhereEq keeps rows whose column equals v.
func (q *Query) WhereEq(col string, v Value) *Query {
	if q.err != nil {
		return q
	}
	if _, err := q.schema.ColIndex(col); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{
		kind: opFilter,
		expr: plan.Cmp{Op: "=", Col: col, Val: litOfValue(v)},
		name: q.name, schema: q.schema,
	})
}

// WhereFloat keeps rows for which pred holds on the numeric column.
func (q *Query) WhereFloat(col string, pred func(float64) bool) *Query {
	if q.err != nil {
		return q
	}
	if _, err := q.schema.ColIndex(col); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{
		kind: opFilter,
		expr: plan.ColPred{Col: col, Fn: "float", Ref: len(q.ops)},
		ffn:  pred,
		name: q.name, schema: q.schema,
	})
}

// WhereString keeps rows for which pred holds on the string column.
func (q *Query) WhereString(col string, pred func(string) bool) *Query {
	if q.err != nil {
		return q
	}
	if _, err := q.schema.ColIndex(col); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{
		kind: opFilter,
		expr: plan.ColPred{Col: col, Fn: "string", Ref: len(q.ops)},
		sfn:  pred,
		name: q.name, schema: q.schema,
	})
}

// WhereExpr keeps rows satisfying the inspectable expression e —
// the fully planner-visible filter form: comparisons, BETWEEN, and
// AND/OR/NOT compositions are pushed below joins and costed.
// plan.ColPred nodes are rejected; their closures only exist inside
// queries built through WhereFloat/WhereString.
func (q *Query) WhereExpr(e plan.Expr) *Query {
	if q.err != nil {
		return q
	}
	if hasColPred(e) {
		return q.fail(fmt.Errorf("engine: WhereExpr cannot carry plan.ColPred nodes; use WhereFloat/WhereString"))
	}
	if err := validateExprCols(e, q.schema); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{kind: opFilter, expr: e, name: q.name, schema: q.schema})
}

func hasColPred(e plan.Expr) bool {
	switch t := e.(type) {
	case plan.ColPred:
		return true
	case plan.And:
		return hasColPred(t.L) || hasColPred(t.R)
	case plan.Or:
		return hasColPred(t.L) || hasColPred(t.R)
	case plan.Not:
		return hasColPred(t.E)
	}
	return false
}

// Select projects to the named columns.
func (q *Query) Select(cols ...string) *Query {
	if q.err != nil {
		return q
	}
	schema := make(Schema, len(cols))
	for i, c := range cols {
		j, err := q.schema.ColIndex(c)
		if err != nil {
			return q.fail(err)
		}
		schema[i] = q.schema[j]
	}
	return q.push(&qop{kind: opSelect, cols: cols, name: q.name, schema: schema})
}

// Rename renames a column in the current result.
func (q *Query) Rename(oldName, newName string) *Query {
	if q.err != nil {
		return q
	}
	j, err := q.schema.ColIndex(oldName)
	if err != nil {
		return q.fail(err)
	}
	schema := q.schema.Clone()
	schema[j].Name = newName
	return q.push(&qop{kind: opRename, oldName: oldName, newName: newName, name: q.name, schema: schema})
}

// Join equijoins the current result with other on leftCol = rightCol.
// Output columns are prefixed with the table names on both sides.
func (q *Query) Join(other *Table, leftCol, rightCol string) *Query {
	return q.join(other, leftCol, rightCol, false)
}

// join records an equi-join; flat keeps left names un-prefixed.
func (q *Query) join(other *Table, leftCol, rightCol string, flat bool) *Query {
	if q.err != nil {
		return q
	}
	if _, err := q.schema.ColIndex(leftCol); err != nil {
		return q.fail(fmt.Errorf("join left: %w", err))
	}
	if _, err := other.Schema.ColIndex(rightCol); err != nil {
		return q.fail(fmt.Errorf("join right: %w", err))
	}
	schema := make(Schema, 0, len(q.schema)+len(other.Schema))
	for _, c := range q.schema {
		name := c.Name
		if !flat {
			name = q.name + "." + name
		}
		schema = append(schema, Column{Name: name, Type: c.Type})
	}
	for _, c := range other.Schema {
		schema = append(schema, Column{Name: other.Name + "." + c.Name, Type: c.Type})
	}
	return q.push(&qop{
		kind:  opJoin,
		joinT: other, joinL: leftCol, joinR: rightCol, joinFlat: flat,
		name: q.name + "_" + other.Name, schema: schema,
	})
}

// GroupBy groups by keys and computes aggs.
func (q *Query) GroupBy(keys []string, aggs ...Aggregate) *Query {
	if q.err != nil {
		return q
	}
	schema := make(Schema, 0, len(keys)+len(aggs))
	for _, k := range keys {
		j, err := q.schema.ColIndex(k)
		if err != nil {
			return q.fail(err)
		}
		schema = append(schema, Column{Name: k, Type: q.schema[j].Type})
	}
	for _, a := range aggs {
		var colType Type
		if a.Fn != AggCount {
			j, err := q.schema.ColIndex(a.Col)
			if err != nil {
				return q.fail(err)
			}
			colType = q.schema[j].Type
		}
		name := a.As
		if name == "" {
			name = a.Fn.String() + "_" + a.Col
		}
		typ := TypeFloat
		if a.Fn == AggCount {
			typ = TypeInt
		} else if a.Fn == AggMin || a.Fn == AggMax {
			typ = colType
		}
		schema = append(schema, Column{Name: name, Type: typ})
	}
	name := q.name + "_group"
	// NewTable performs the duplicate-column validation the execution
	// path would, so the error is latched now, not at Run.
	if _, err := NewTable(name, schema); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{kind: opGroupBy, cols: keys, aggs: aggs, name: name, schema: schema})
}

// OrderBy sorts by the column.
func (q *Query) OrderBy(col string, desc bool) *Query {
	if q.err != nil {
		return q
	}
	if _, err := q.schema.ColIndex(col); err != nil {
		return q.fail(err)
	}
	return q.push(&qop{kind: opOrderBy, col: col, desc: desc, name: q.name, schema: q.schema})
}

// Distinct removes duplicate rows.
func (q *Query) Distinct() *Query {
	if q.err != nil {
		return q
	}
	return q.push(&qop{kind: opDistinct, name: q.name, schema: q.schema})
}

// Limit truncates to n rows.
func (q *Query) Limit(n int) *Query {
	if q.err != nil {
		return q
	}
	return q.push(&qop{kind: opLimit, n: n, name: q.name, schema: q.schema})
}

// --- execution ---

// exec runs the recorded operations and returns the final execution
// state. The planner, when enabled, executes the leading
// scan/filter/join region from its optimized plan; everything else
// (and everything, when the planner is off or the region cannot be
// planned) replays through the chain one operation at a time.
func (q *Query) exec() (*chain, error) {
	budget, dir := q.spillConfig()
	colQueries.Add(1)
	if q.store != nil {
		return q.execStorage(budget, dir)
	}
	ch := &chain{sc: NewScratch(), budget: budget, spillDir: dir}
	if q.provOn {
		ch.prov = &provState{arena: prov.NewArena()}
	}
	start := 0
	if q.plannerOn() {
		n, handled, err := q.planRegion(ch)
		if err != nil {
			return nil, err
		}
		if handled {
			start = n
		}
	}
	if start == 0 {
		planDirect.Add(1)
		b, err := scan(q.src)
		if err != nil {
			return nil, err
		}
		ch.setSource(b)
	}
	for _, op := range q.ops[start:] {
		if err := ch.apply(op, q); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// scan decodes a source table into a block, counting its rows in
// engine.rows_scanned: every relation a query reads passes through
// here (or through execStorage's partition loop) exactly once.
func scan(t *Table) (*ColumnBlock, error) {
	b, err := FromTable(t)
	if err != nil {
		return nil, err
	}
	rowsScanned.Add(int64(b.Len()))
	return b, nil
}

// execStorage scans q.store's partitions — handing the scan the
// query's leading filters as a pruning hint — concatenates the
// surviving blocks, and replays every recorded operation over them.
// All filters re-apply in full, so pruning (which only ever skips
// partitions that cannot contain a matching row) is correctness-
// neutral.
func (q *Query) execStorage(budget int64, dir string) (*chain, error) {
	ctx := q.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Under provenance, pruning is disabled: leaf annotations index
	// rows of the full stored relation, and a pruned scan would shift
	// every index after the first skipped partition.
	var hint plan.Expr
	if !q.provOn {
		hint = q.leadingFilterExpr()
	}
	it, err := q.store.ScanPartitions(ctx, nil, hint)
	if err != nil {
		return nil, err
	}
	var parts []*ColumnBlock
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		rowsScanned.Add(int64(b.Len()))
		parts = append(parts, b)
	}
	b, err := concatBlocks(q.store.StorageName(), q.store.StorageSchema(), parts)
	if err != nil {
		return nil, err
	}
	ch := &chain{sc: NewScratch(), budget: budget, spillDir: dir}
	if q.provOn {
		ch.prov = &provState{arena: prov.NewArena()}
	}
	ch.setSource(b)
	planDirect.Add(1)
	for _, op := range q.ops {
		if err := ch.apply(op, q); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// leadingFilterExpr conjoins the query's leading run of inspectable
// filters into one pruning hint, with every column name mapped back to
// its stored (scan) name, which is all zone maps can judge. The
// leading run extends through Select and Rename — both are pure name
// reshaping, so a filter written after them still provably restricts
// scan columns — and stops at any other operation. ColPred filters
// are included (the zone evaluator treats them as "must decode"),
// keeping the conjunction's And shape intact for the prunable
// conjuncts around them.
func (q *Query) leadingFilterExpr() plan.Expr {
	var e plan.Expr
	// toStored maps the current (lowercased) column names back to
	// stored names; nil means the identity (no reshaping seen yet).
	var toStored map[string]string
	stored := func(name string) string {
		if toStored == nil {
			return name
		}
		if s, ok := toStored[strings.ToLower(name)]; ok {
			return s
		}
		return name
	}
	for _, op := range q.ops {
		switch op.kind {
		case opFilter:
			fe := op.expr
			if toStored != nil {
				fe = plan.RenameCols(fe, stored)
			}
			if e == nil {
				e = fe
			} else {
				e = plan.And{L: e, R: fe}
			}
		case opSelect:
			nm := make(map[string]string, len(op.cols))
			for _, c := range op.cols {
				nm[strings.ToLower(c)] = stored(c)
			}
			toStored = nm
		case opRename:
			nm := make(map[string]string, len(toStored)+1)
			for k, v := range toStored {
				nm[k] = v
			}
			old := stored(op.oldName)
			delete(nm, strings.ToLower(op.oldName))
			nm[strings.ToLower(op.newName)] = old
			toStored = nm
		default:
			return e
		}
	}
	return e
}

// Run returns the result table or the first error encountered. Rows
// are materialized here, once, from the final block.
func (q *Query) Run() (*Table, error) {
	if q.err != nil {
		return nil, q.err
	}
	ch, err := q.exec()
	if err != nil {
		return nil, err
	}
	if ch.prov != nil {
		return stripProv(ch.prov.arena, ch.b), nil
	}
	return ch.b.ToTable(), nil
}

// MustRun returns the result table, panicking on error; for tests and
// examples with statically known schemas.
func (q *Query) MustRun() *Table {
	t, err := q.Run()
	if err != nil {
		panic(err)
	}
	return t
}

// Count runs the query and returns its row count.
func (q *Query) Count() (int, error) {
	if q.err != nil {
		return 0, q.err
	}
	ch, err := q.exec()
	if err != nil {
		return 0, err
	}
	return ch.b.Len(), nil
}

// ScalarFloat runs the query, which must produce exactly one row and one
// numeric column, and returns that value. This is the shape of the
// DEFINE ... AS (SELECT COUNT(...) ...) statements in Algorithm 1.
func (q *Query) ScalarFloat() (float64, error) {
	t, err := q.Run()
	if err != nil {
		return 0, err
	}
	if t.Len() != 1 || len(t.Schema) != 1 {
		return 0, fmt.Errorf("engine: scalar query returned %d rows × %d cols", t.Len(), len(t.Schema))
	}
	v := t.Rows[0][0]
	if !v.IsNumeric() {
		return 0, fmt.Errorf("%w: scalar query returned %s", ErrTypeClash, v.Type())
	}
	return v.AsFloat(), nil
}

// --- the chain: direct (as-written) execution ---

// chain is the direct executor: it applies the recorded operations one
// at a time to a column block. The planner-off path runs entirely
// here, and the planned path hands its region output to a chain for
// the remaining operations, so every query ends in this executor.
type chain struct {
	b  *ColumnBlock // the current state
	sc *Scratch     // shared per-execution operator scratch

	// budget and spillDir are the execution's resolved spill policy,
	// applied by the hash join and group-by operators (0 = never
	// spill).
	budget   int64
	spillDir string

	// prov, when non-nil, is the execution's provenance context: the
	// state carries a hidden annotation column (see provexec.go).
	prov *provState
}

// setSource installs the scanned source relation as the chain's state,
// annotating it as the provenance leaf relation when recording
// provenance.
func (c *chain) setSource(b *ColumnBlock) {
	if c.prov != nil {
		b = c.prov.annotateBlock(b)
	}
	c.b = b
}

// apply executes one recorded operation against the current state.
func (c *chain) apply(op *qop, q *Query) error {
	if c.prov != nil {
		if handled, err := c.applyProv(op); handled {
			return err
		}
	}
	b := c.b
	var err error
	switch op.kind {
	case opFilter:
		b, err = c.filterBlock(b, op, q)
	case opSelect:
		b, err = b.Project(op.cols...)
	case opRename:
		b, err = b.Rename(op.oldName, op.newName)
	case opJoin:
		// The join's output names are overwritten with the eagerly
		// computed schema: a no-op for the default (both-sides-prefixed)
		// naming, and the mechanism that implements flat SQL naming.
		// Column order is left++right, so the overwrite is positionally
		// safe.
		var r *ColumnBlock
		if r, err = scan(op.joinT); err == nil {
			if b, err = b.equiJoinBudget(r, op.joinL, op.joinR, c.sc, c.budget, c.spillDir); err == nil {
				b.Name = op.name
				b.Schema = op.schema.Clone()
			}
		}
	case opGroupBy:
		b, err = b.groupByBudget(op.cols, op.aggs, c.sc, c.budget, c.spillDir)
	case opOrderBy:
		b, err = b.OrderBy(op.col, op.desc)
	case opDistinct:
		b = b.Distinct(c.sc)
	case opLimit:
		b = b.Limit(op.n)
	default:
		return fmt.Errorf("engine: unknown query op %d", op.kind)
	}
	if err != nil {
		return err
	}
	c.b = b
	return nil
}

// filterBlock applies an opFilter, using the typed single-column
// operators where the expression shape permits (the WhereEq/
// WhereFloat/WhereString fast paths) and the generic compiled
// predicate otherwise.
func (c *chain) filterBlock(b *ColumnBlock, op *qop, q *Query) (*ColumnBlock, error) {
	switch e := op.expr.(type) {
	case plan.Cmp:
		if e.Op == "=" {
			return b.WhereEq(e.Col, valOfLit(e.Val))
		}
	case plan.ColPred:
		switch {
		case e.Fn == "float" && op.ffn != nil:
			return b.WhereFloat(e.Col, op.ffn)
		case e.Fn == "string" && op.sfn != nil:
			return b.WhereString(e.Col, op.sfn)
		}
	}
	pred, err := compileExprBlock(op.expr, b, q)
	if err != nil {
		return nil, err
	}
	return b.whereFunc(pred), nil
}
