package engine

// Why-provenance threading through query execution. When a query runs
// WithProvenance, the execution state carries one hidden TypeInt column
// (provColName, NUL-prefixed like the planner's row-id columns so no
// user name can collide with it) holding, per row, an interned
// prov.Set handle: the set of source-table rows that produced the row.
// The invariant between operators is simple — the provenance column is
// always the LAST column of the state — and each operator either
// preserves it untouched (filters, rename, order-by, limit: they only
// select or permute rows) or is wrapped here to combine annotations
// (join ⊗, group-by/distinct ⊕) and restore the invariant.
//
// The semiring is sets-of-input-rows under union for both ⊗ and ⊕
// (internal/prov), so annotations are insensitive to the planner's
// join reordering: planexec.go computes region-exit annotations from
// the same hidden row-id columns its order-restoring sort uses, and
// union's associativity/commutativity guarantees the result matches
// written-order execution.

import (
	"modeldata/internal/prov"
)

// provColName names the hidden provenance column. The NUL prefix keeps
// it out of any user-referencable namespace, exactly like ridColName.
const provColName = "\x00prov"

var provCol = Column{Name: provColName, Type: TypeInt}

// provState is a chain's provenance context: the arena interning this
// execution's annotation sets.
type provState struct {
	arena *prov.Arena
}

// WithProvenance makes the query record why-provenance: every result
// row is annotated with the set of source-table rows that produced it,
// retrievable from the result via Table.Lineage. Joins union the two
// sides' annotations; group-by and distinct union across the rows
// merged into each output row. Provenance never changes the visible
// result — rows, order, and values are identical to a run without it.
//
// Storage-backed queries disable zone-map pruning under provenance so
// row annotations index the full stored relation; the extra decode
// cost is the price of stable leaf identities.
func (q *Query) WithProvenance() *Query {
	nq := *q
	nq.provOn = true
	return &nq
}

// annotateBlock appends the provenance column to a source block: row i
// gets the singleton set {name:i}. Row indexes are logical, so the
// leaf of a source row is its index in the source relation.
func (ps *provState) annotateBlock(b *ColumnBlock) *ColumnBlock {
	n := b.Len()
	ids := make([]int64, b.nrows)
	for i := 0; i < n; i++ {
		ids[b.phys(i)] = int64(ps.arena.Leaf(b.Name, i))
	}
	provAnnotated.Add(int64(n))
	return &ColumnBlock{
		Name:   b.Name,
		Schema: append(b.Schema.Clone(), provCol),
		nrows:  b.nrows,
		sel:    b.sel,
		cols:   append(append(make([]colvec, 0, len(b.cols)+1), b.cols...), colvec{ints: ids}),
	}
}

// stripProv materializes an annotated result: the user columns become
// the table's rows and the hidden provenance column its lineage, so
// callers see exactly the schema they asked for.
func stripProv(arena *prov.Arena, b *ColumnBlock) *Table {
	pi := len(b.Schema) - 1
	sets := make([]prov.Set, b.Len())
	pvec := b.cols[pi].ints
	for i := range sets {
		sets[i] = prov.Set(pvec[b.phys(i)])
	}
	user := &ColumnBlock{Name: b.Name, Schema: b.Schema[:pi], nrows: b.nrows, sel: b.sel, cols: b.cols[:pi]}
	t := user.ToTable()
	t.lineage = &tableLineage{arena: arena, sets: sets}
	return t
}

// applyProv executes the recorded operations that must combine or
// re-anchor annotations. It reports handled=false for operations the
// plain executor already keeps correct (filters, rename, order-by,
// limit only select or permute rows, and the provenance column rides
// along untouched).
func (c *chain) applyProv(op *qop) (handled bool, err error) {
	switch op.kind {
	case opSelect:
		// Project the user columns plus the hidden one.
		cols := append(append(make([]string, 0, len(op.cols)+1), op.cols...), provColName)
		nb, err := c.b.Project(cols...)
		if err != nil {
			return true, err
		}
		c.b = nb
		return true, nil

	case opJoin:
		return true, c.provJoin(op)

	case opGroupBy:
		return true, c.provGroupBy(op)

	case opDistinct:
		return true, c.provDistinct()
	}
	return false, nil
}

// provJoin runs an equi-join with both sides annotated and ⊗-combines
// the two provenance columns of each output row into one. The right
// table is annotated on entry (its rows become fresh leaves); row
// counts are unchanged by the extra column, so the build-side choice —
// and therefore emission order — matches an unannotated run exactly.
func (c *chain) provJoin(op *qop) error {
	rb, err := scan(op.joinT)
	if err != nil {
		return err
	}
	b := c.b
	jb, err := b.equiJoinBudget(c.prov.annotateBlock(rb), op.joinL, op.joinR, c.sc, c.budget, c.spillDir)
	if err != nil {
		return err
	}
	// Left annotations sit just before the right side's columns, right
	// annotations last; both are dense after the join.
	lp := len(b.Schema) - 1
	rp := len(jb.Schema) - 1
	merged := make([]int64, jb.nrows)
	lints, rints := jb.cols[lp].ints, jb.cols[rp].ints
	for i := range merged {
		merged[i] = int64(c.prov.arena.Join(prov.Set(lints[i]), prov.Set(rints[i])))
	}
	out := &ColumnBlock{
		Name:   op.name,
		Schema: append(op.schema.Clone(), provCol),
		nrows:  jb.nrows,
		sel:    jb.sel,
		cols:   make([]colvec, 0, len(op.schema)+1),
	}
	for j := range jb.Schema {
		if j == lp || j == rp {
			continue
		}
		out.cols = append(out.cols, jb.cols[j])
	}
	out.cols = append(out.cols, colvec{ints: merged})
	c.b = out
	return nil
}

// provGroupBy aggregates with ⊕-combined group annotations: each output
// group's set is the union of its input rows' sets, accumulated in
// logical row order. The aggregate values come from the same
// first-appearance grouping the plain operator uses, so visible output
// is identical to an unannotated run. Provenance group-bys never spill:
// annotations live in the arena, which the on-disk partitions cannot
// carry.
func (c *chain) provGroupBy(op *qop) error {
	b := c.b
	keyIdx, aggIdx, err := b.groupCols(op.cols, op.aggs)
	if err != nil {
		return err
	}
	gids, firstP, nGroups := b.groups(keyIdx, c.sc)
	cols := b.aggregateGroups(keyIdx, aggIdx, op.aggs, gids, firstP, nGroups)
	gsets := make([]int64, nGroups)
	pvec := b.cols[len(b.Schema)-1].ints
	for i, g := range gids {
		gsets[g] = int64(c.prov.arena.Union(prov.Set(gsets[g]), prov.Set(pvec[b.phys(i)])))
	}
	c.b = &ColumnBlock{
		Name:   op.name,
		Schema: append(op.schema.Clone(), provCol),
		nrows:  nGroups,
		cols:   append(cols, colvec{ints: gsets}),
	}
	return nil
}

// provDistinct removes duplicates judged on the user columns only and
// ⊕-merges each duplicate's annotation into the kept first row, so the
// surviving row names every input that could have produced it.
func (c *chain) provDistinct() error {
	b := c.b
	pi := len(b.Schema) - 1
	userIdx := make([]int, pi)
	for j := range userIdx {
		userIdx[j] = j
	}
	var gids, firstP []int32
	if pi == 0 {
		// Degenerate: every row is the same (empty) user tuple.
		n := b.Len()
		gids = make([]int32, n)
		if n > 0 {
			firstP = []int32{int32(b.phys(0))}
		}
	} else {
		gids, firstP = b.groupIDs(userIdx, c.sc)
	}
	gsets := make([]prov.Set, len(firstP))
	pvec := b.cols[pi].ints
	for i, g := range gids {
		gsets[g] = c.prov.arena.Union(gsets[g], prov.Set(pvec[b.phys(i)]))
	}
	merged := make([]int64, b.nrows)
	for g, p := range firstP {
		merged[p] = int64(gsets[g])
	}
	nb, err := b.withSel(firstP).WithColumn(pi, merged)
	if err != nil {
		return err
	}
	c.b = nb
	return nil
}
