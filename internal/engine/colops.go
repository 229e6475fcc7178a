package engine

// Vectorized relational operators over ColumnBlocks, the engine's
// only execution path. Determinism rules: group-by and distinct emit
// in first-appearance order, joins emit in probe order with build-side
// insertion order within a key, and sorts are stable. golden_test.go
// checks every operator against a row-at-a-time reference oracle
// (oracle_test.go) on randomized inputs, down to Value payload bits.

import (
	"fmt"
	"sort"
)

// --- selections ---

// emptySel is the canonical empty selection. Operator outputs must
// never carry a nil sel (nil means identity), so an empty result gets
// this shared zero-length vector instead.
var emptySel = []int32{}

// withSel returns a shallow copy of b whose logical rows are the given
// absolute (physical) selection.
func (b *ColumnBlock) withSel(sel []int32) *ColumnBlock {
	if sel == nil {
		sel = emptySel
	}
	return &ColumnBlock{Name: b.Name, Schema: b.Schema.Clone(), nrows: b.nrows, sel: sel, cols: b.cols}
}

// whereFunc keeps logical rows for which pred holds. pred receives the
// logical row index and reads columns through the block.
func (b *ColumnBlock) whereFunc(pred func(i int) bool) *ColumnBlock {
	n := b.Len()
	var sel []int32
	for i := 0; i < n; i++ {
		if pred(i) {
			sel = append(sel, int32(b.phys(i)))
		}
	}
	return b.withSel(sel)
}

// WhereEq keeps rows whose column equals v, with typed fast paths over
// the column vector; cross-type numeric comparisons fall back to
// Value.Equal and keep its exact semantics.
func (b *ColumnBlock) WhereEq(col string, v Value) (*ColumnBlock, error) {
	j, err := b.ColIndex(col)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	var sel []int32
	switch {
	case b.Schema[j].Type == TypeInt && v.typ == TypeInt:
		ints := b.cols[j].ints
		for i := 0; i < n; i++ {
			if p := b.phys(i); ints[p] == v.i {
				sel = append(sel, int32(p))
			}
		}
	case b.Schema[j].Type == TypeString && v.typ == TypeString:
		strs := b.cols[j].strs
		for i := 0; i < n; i++ {
			if p := b.phys(i); strs[p] == v.s {
				sel = append(sel, int32(p))
			}
		}
	case b.Schema[j].Type == TypeBool && v.typ == TypeBool:
		bools := b.cols[j].bools
		for i := 0; i < n; i++ {
			if p := b.phys(i); bools[p] == v.b {
				sel = append(sel, int32(p))
			}
		}
	default:
		for i := 0; i < n; i++ {
			p := b.phys(i)
			if b.valuePhys(p, j).Equal(v) {
				sel = append(sel, int32(p))
			}
		}
	}
	return b.withSel(sel), nil
}

// WhereFloat keeps rows for which pred holds on the numeric column
// widened to float64; rows of non-numeric columns never qualify.
func (b *ColumnBlock) WhereFloat(col string, pred func(float64) bool) (*ColumnBlock, error) {
	j, err := b.ColIndex(col)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	var sel []int32
	switch b.Schema[j].Type {
	case TypeFloat:
		fs := b.cols[j].floats
		for i := 0; i < n; i++ {
			if p := b.phys(i); pred(fs[p]) {
				sel = append(sel, int32(p))
			}
		}
	case TypeInt:
		ints := b.cols[j].ints
		for i := 0; i < n; i++ {
			if p := b.phys(i); pred(float64(ints[p])) {
				sel = append(sel, int32(p))
			}
		}
	}
	return b.withSel(sel), nil
}

// WhereString keeps rows for which pred holds on the string column.
func (b *ColumnBlock) WhereString(col string, pred func(string) bool) (*ColumnBlock, error) {
	j, err := b.ColIndex(col)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	var sel []int32
	if b.Schema[j].Type == TypeString {
		strs := b.cols[j].strs
		for i := 0; i < n; i++ {
			if p := b.phys(i); pred(strs[p]) {
				sel = append(sel, int32(p))
			}
		}
	}
	return b.withSel(sel), nil
}

// --- shape operators ---

// Project returns a block with only the named columns, in order. The
// column vectors and selection are shared, not copied.
func (b *ColumnBlock) Project(cols ...string) (*ColumnBlock, error) {
	idx := make([]int, len(cols))
	schema := make(Schema, len(cols))
	for i, c := range cols {
		j, err := b.ColIndex(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
		schema[i] = b.Schema[j]
	}
	nc := make([]colvec, len(idx))
	for i, j := range idx {
		nc[i] = b.cols[j]
	}
	return &ColumnBlock{Name: b.Name, Schema: schema, nrows: b.nrows, sel: b.sel, cols: nc}, nil
}

// Rename returns a shallow copy with column old renamed to new.
func (b *ColumnBlock) Rename(oldName, newName string) (*ColumnBlock, error) {
	j, err := b.ColIndex(oldName)
	if err != nil {
		return nil, err
	}
	nb := *b
	nb.Schema = b.Schema.Clone()
	nb.Schema[j].Name = newName
	return &nb, nil
}

// Limit returns at most n logical rows.
func (b *ColumnBlock) Limit(n int) *ColumnBlock {
	if n < 0 {
		n = 0
	}
	if n >= b.Len() {
		nb := *b
		return &nb
	}
	if b.sel != nil {
		return b.withSel(b.sel[:n])
	}
	nb := *b
	nb.nrows = n
	return &nb
}

// --- key codes ---

// colKeyKind partitions column types into key spaces: values of
// different kinds never share a key (Value.Key tags them differently).
func colKeyKind(t Type) int {
	switch t {
	case TypeInt, TypeFloat:
		return 0
	case TypeString:
		return 1
	default:
		return 2
	}
}

// keyCodes fills codes[i] with the uint64 key code of logical row i of
// column j. Codes are pre-encoded join/group keys: equal codes iff
// equal Value.Key strings, within one key kind. For int columns
// containing an int64 not exactly representable as float64 the uint64
// space cannot stay collision-free against float bit patterns, so it
// reports ok=false and callers fall back to binary byte keys.
func (b *ColumnBlock) keyCodes(j int, codes []uint64) (ok bool) {
	n := b.Len()
	switch b.Schema[j].Type {
	case TypeInt:
		ints := b.cols[j].ints
		for i := 0; i < n; i++ {
			bits, tag := intKeyBits(ints[b.phys(i)])
			if tag == keyTagBig {
				return false
			}
			codes[i] = bits
		}
	case TypeFloat:
		fs := b.cols[j].floats
		for i := 0; i < n; i++ {
			codes[i] = numKeyBits(fs[b.phys(i)])
		}
	case TypeBool:
		bools := b.cols[j].bools
		for i := 0; i < n; i++ {
			if bools[b.phys(i)] {
				codes[i] = 1
			} else {
				codes[i] = 0
			}
		}
	default:
		return false
	}
	return true
}

// appendKeyAt appends the binary key of logical row i, column j.
func (b *ColumnBlock) appendKeyAt(dst []byte, i, j int) []byte {
	p := b.phys(i)
	switch b.Schema[j].Type {
	case TypeInt:
		bits, tag := intKeyBits(b.cols[j].ints[p])
		return appendTagged64(dst, tag, bits)
	case TypeFloat:
		return appendTagged64(dst, keyTagNum, numKeyBits(b.cols[j].floats[p]))
	case TypeString:
		return appendStringKey(dst, b.cols[j].strs[p])
	case TypeBool:
		return appendBoolKey(dst, b.cols[j].bools[p])
	}
	return append(dst, '?')
}

// --- hash equi-join ---

func prefixSchemaNamed(name string, s Schema) Schema {
	out := make(Schema, len(s))
	for i, c := range s {
		out[i] = Column{Name: name + "." + c.Name, Type: c.Type}
	}
	return out
}

// gather materializes the logical rows named by physical indexes idx
// out of cv into a fresh vector.
func gather(cv colvec, typ Type, idx []int32) colvec {
	var out colvec
	switch typ {
	case TypeInt:
		out.ints = make([]int64, len(idx))
		for i, p := range idx {
			out.ints[i] = cv.ints[p]
		}
	case TypeFloat:
		out.floats = make([]float64, len(idx))
		for i, p := range idx {
			out.floats[i] = cv.floats[p]
		}
	case TypeString:
		out.strs = make([]string, len(idx))
		for i, p := range idx {
			out.strs[i] = cv.strs[p]
		}
	case TypeBool:
		out.bools = make([]bool, len(idx))
		for i, p := range idx {
			out.bools[i] = cv.bools[p]
		}
	}
	return out
}

// equiJoinIdx computes the matching (left, right) physical row-index
// pairs of the hash equi-join of l and r on columns li and ri.
// buildLeft selects the hash-build side explicitly; emission order is
// probe order with build-side insertion order within a key, so the
// build side fully determines output order. The returned slices come
// from sc's index buffers — callers must hand them back with putIdx
// once consumed. sc must be non-nil.
func equiJoinIdx(l, r *ColumnBlock, li, ri int, buildLeft bool, sc *Scratch) (lidx, ridx []int32) {
	build, probe := r, l
	bi, pi := ri, li
	swapped := false
	if buildLeft {
		build, probe = l, r
		bi, pi = li, ri
		swapped = true
	}

	lidx, ridx = sc.idxBuf(0), sc.idxBuf(1)
	emit := func(pPhys, bPhys int32) {
		if swapped {
			lidx = append(lidx, bPhys)
			ridx = append(ridx, pPhys)
		} else {
			lidx = append(lidx, pPhys)
			ridx = append(ridx, bPhys)
		}
	}

	if colKeyKind(l.Schema[li].Type) == colKeyKind(r.Schema[ri].Type) {
		switch {
		case l.Schema[li].Type == TypeString: // both string
			ht := make(map[string][]int32, build.Len())
			bstrs := build.cols[bi].strs
			for i, n := 0, build.Len(); i < n; i++ {
				p := int32(build.phys(i))
				ht[bstrs[p]] = append(ht[bstrs[p]], p)
			}
			pstrs := probe.cols[pi].strs
			for i, n := 0, probe.Len(); i < n; i++ {
				p := int32(probe.phys(i))
				for _, bp := range ht[pstrs[p]] {
					emit(p, bp)
				}
			}
		default: // numeric or bool: uint64 key codes
			bcodes := sc.codesBuf(build.Len(), 0)
			pcodes := sc.codesBuf(probe.Len(), 1)
			if build.keyCodes(bi, bcodes) && probe.keyCodes(pi, pcodes) {
				ht := make(map[uint64][]int32, len(bcodes))
				for i, c := range bcodes {
					ht[c] = append(ht[c], int32(build.phys(i)))
				}
				for i, c := range pcodes {
					p := int32(probe.phys(i))
					for _, bp := range ht[c] {
						emit(p, bp)
					}
				}
			} else {
				// An unrepresentable int64 key appeared: uint64 codes
				// cannot stay collision-free, use binary byte keys.
				ht := make(map[string][]int32, build.Len())
				buf := sc.keyBuf()
				for i, n := 0, build.Len(); i < n; i++ {
					buf = build.appendKeyAt(buf[:0], i, bi)
					ht[string(buf)] = append(ht[string(buf)], int32(build.phys(i)))
				}
				for i, n := 0, probe.Len(); i < n; i++ {
					buf = probe.appendKeyAt(buf[:0], i, pi)
					p := int32(probe.phys(i))
					for _, bp := range ht[string(buf)] {
						emit(p, bp)
					}
				}
				sc.putKey(buf)
			}
		}
	}
	// Mismatched key kinds (e.g. string vs numeric) never join; the
	// output stays empty.
	return lidx, ridx
}

// EquiJoin computes the hash equi-join of b and r on leftCol =
// rightCol. The hash table is built on the smaller input (ties build on
// the right, which fixes the emission order) from pre-encoded uint64
// key codes; no per-row key strings are constructed.
// Output columns are prefixed with the block names.
func (b *ColumnBlock) EquiJoin(r *ColumnBlock, leftCol, rightCol string, sc *Scratch) (*ColumnBlock, error) {
	return b.equiJoinBudget(r, leftCol, rightCol, sc, 0, "")
}

// equiJoinBudget is EquiJoin with a spill policy: when budget > 0 and
// the build side's estimated hash footprint exceeds it, the join
// Grace-partitions to disk under dir (see spill.go). Output is
// byte-identical either way.
func (b *ColumnBlock) equiJoinBudget(r *ColumnBlock, leftCol, rightCol string, sc *Scratch, budget int64, dir string) (*ColumnBlock, error) {
	sc = sc.orNew()
	l := b
	li, err := l.ColIndex(leftCol)
	if err != nil {
		return nil, fmt.Errorf("join left: %w", err)
	}
	ri, err := r.ColIndex(rightCol)
	if err != nil {
		return nil, fmt.Errorf("join right: %w", err)
	}
	// Build on the smaller side; ties build right.
	lidx, ridx := joinPairs(l, r, li, ri, l.Len() < r.Len(), sc, budget, dir)

	out := &ColumnBlock{
		Name:   l.Name + "_" + r.Name,
		Schema: append(prefixSchemaNamed(l.Name, l.Schema), prefixSchemaNamed(r.Name, r.Schema)...),
		nrows:  len(lidx),
		cols:   make([]colvec, 0, len(l.Schema)+len(r.Schema)),
	}
	for j := range l.Schema {
		out.cols = append(out.cols, gather(l.cols[j], l.Schema[j].Type, lidx))
	}
	for j := range r.Schema {
		out.cols = append(out.cols, gather(r.cols[j], r.Schema[j].Type, ridx))
	}
	sc.putIdx(0, lidx)
	sc.putIdx(1, ridx)
	return out, nil
}

// --- group-by ---

// colAggState is the per-(group, aggregate) accumulator. Min/max track
// physical row positions so emission gathers the exact first extreme
// value (payload bits included) without boxing during the scan.
type colAggState struct {
	sum        float64
	minP, maxP int32
	seen       bool
}

// groupIDs assigns a dense group id to every logical row, in
// first-appearance order, keyed by the composite key columns. It
// returns one id per row plus the physical row of each group's first
// appearance.
func (b *ColumnBlock) groupIDs(keyIdx []int, sc *Scratch) (gids []int32, firstP []int32) {
	n := b.Len()
	gids = make([]int32, n)
	if len(keyIdx) == 1 {
		j := keyIdx[0]
		switch b.Schema[j].Type {
		case TypeString:
			strs := b.cols[j].strs
			m := make(map[string]int32)
			for i := 0; i < n; i++ {
				p := b.phys(i)
				g, ok := m[strs[p]]
				if !ok {
					g = int32(len(firstP))
					m[strs[p]] = g
					firstP = append(firstP, int32(p))
				}
				gids[i] = g
			}
			return gids, firstP
		case TypeInt, TypeFloat, TypeBool:
			codes := sc.codesBuf(n, 0)
			if b.keyCodes(j, codes) {
				m := make(map[uint64]int32)
				for i, c := range codes {
					g, ok := m[c]
					if !ok {
						g = int32(len(firstP))
						m[c] = g
						firstP = append(firstP, int32(b.phys(i)))
					}
					gids[i] = g
				}
				return gids, firstP
			}
		}
	}
	// Composite (or big-int single) keys: binary byte encoding.
	m := make(map[string]int32)
	buf := sc.keyBuf()
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for _, j := range keyIdx {
			buf = b.appendKeyAt(buf, i, j)
		}
		g, ok := m[string(buf)]
		if !ok {
			g = int32(len(firstP))
			m[string(buf)] = g
			firstP = append(firstP, int32(b.phys(i)))
		}
		gids[i] = g
	}
	sc.putKey(buf)
	return gids, firstP
}

// AggFunc identifies an aggregate function.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(a))
}

// Aggregate describes one aggregate output: fn applied to column Col
// (ignored for COUNT), labeled As in the output schema.
type Aggregate struct {
	Fn  AggFunc
	Col string
	As  string
}

// GroupBy groups the block by the given key columns and computes the
// requested aggregates per group in one pass over the column vectors,
// emitting groups in first-appearance order. With no key columns a
// single global group is produced, even over empty input; there MIN
// and MAX yield the zero value of the aggregated column's type.
func (b *ColumnBlock) GroupBy(keys []string, aggs []Aggregate, sc *Scratch) (*ColumnBlock, error) {
	return b.groupByBudget(keys, aggs, sc, 0, "")
}

// groupCols resolves the key and aggregate column indexes (COUNT takes
// no column; its index is -1).
func (b *ColumnBlock) groupCols(keys []string, aggs []Aggregate) (keyIdx, aggIdx []int, err error) {
	keyIdx = make([]int, len(keys))
	for i, k := range keys {
		j, err := b.ColIndex(k)
		if err != nil {
			return nil, nil, err
		}
		keyIdx[i] = j
	}
	aggIdx = make([]int, len(aggs))
	for i, a := range aggs {
		if a.Fn == AggCount {
			aggIdx[i] = -1
			continue
		}
		j, err := b.ColIndex(a.Col)
		if err != nil {
			return nil, nil, err
		}
		aggIdx[i] = j
	}
	return keyIdx, aggIdx, nil
}

// groupByBudget is GroupBy with a spill policy: when budget > 0 and the
// estimated group hash footprint exceeds it, rows Grace-partition to
// disk under dir and each partition aggregates separately (see
// spill.go). Keyless group-bys never spill — one global group needs no
// hash table.
func (b *ColumnBlock) groupByBudget(keys []string, aggs []Aggregate, sc *Scratch, budget int64, dir string) (*ColumnBlock, error) {
	sc = sc.orNew()
	keyIdx, aggIdx, err := b.groupCols(keys, aggs)
	if err != nil {
		return nil, err
	}
	schema := groupSchema(b, keys, keyIdx, aggs, aggIdx)
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	name := b.Name + "_group"
	if budget > 0 && len(keyIdx) > 0 && estHashBytes(b, keyIdx) > budget {
		out, err := b.spillGroupBy(name, schema, keyIdx, aggIdx, aggs, sc, budget, dir)
		if err == nil {
			return out, nil
		}
		spillFallbacks.Add(1)
	}
	gids, firstP, nGroups := b.groups(keyIdx, sc)
	return &ColumnBlock{
		Name: name, Schema: schema, nrows: nGroups,
		cols: b.aggregateGroups(keyIdx, aggIdx, aggs, gids, firstP, nGroups),
	}, nil
}

// groups assigns every logical row its group id. Keyed group-bys use
// groupIDs; a keyless one is a single global group, which exists even
// over empty input (SQL semantics: COUNT(*) = 0).
func (b *ColumnBlock) groups(keyIdx []int, sc *Scratch) (gids, firstP []int32, nGroups int) {
	if len(keyIdx) > 0 {
		gids, firstP = b.groupIDs(keyIdx, sc)
		return gids, firstP, len(firstP)
	}
	n := b.Len()
	if n > 0 {
		firstP = []int32{int32(b.phys(0))}
	}
	return make([]int32, n), firstP, 1
}

// groupSchema builds the group-by output schema: keys then aggregates.
func groupSchema(b *ColumnBlock, keys []string, keyIdx []int, aggs []Aggregate, aggIdx []int) Schema {
	schema := make(Schema, 0, len(keys)+len(aggs))
	for i, k := range keys {
		schema = append(schema, Column{Name: k, Type: b.Schema[keyIdx[i]].Type})
	}
	for i, a := range aggs {
		name := a.As
		if name == "" {
			name = a.Fn.String() + "_" + a.Col
		}
		typ := TypeFloat
		if a.Fn == AggCount {
			typ = TypeInt
		} else if a.Fn == AggMin || a.Fn == AggMax {
			typ = b.Schema[aggIdx[i]].Type
		}
		schema = append(schema, Column{Name: name, Type: typ})
	}
	return schema
}

// aggregateGroups runs the accumulation passes and returns the output
// columns — keys, then one per aggregate — with one entry per group in
// group-id order. gids/firstP come from groups over the same block, so
// per-group accumulation follows the block's logical row order.
func (b *ColumnBlock) aggregateGroups(keyIdx, aggIdx []int, aggs []Aggregate, gids, firstP []int32, nGroups int) []colvec {
	n := b.Len()

	// Group sizes, shared by COUNT and AVG across all aggregates.
	counts := make([]int64, nGroups)
	for _, g := range gids {
		counts[g]++
	}

	cols := make([]colvec, 0, len(keyIdx)+len(aggs))
	for _, j := range keyIdx {
		cols = append(cols, gather(b.cols[j], b.Schema[j].Type, firstP))
	}
	// One accumulation pass per aggregate, column-at-a-time. Per-group
	// sums accumulate in row order, so float results are bit-identical
	// to a row-at-a-time accumulation.
	for ai, a := range aggs {
		if a.Fn == AggCount {
			cols = append(cols, colvec{ints: counts})
			continue
		}
		j := aggIdx[ai]
		typ := b.Schema[j].Type
		if n == 0 {
			// Only the keyless global group exists, and it saw no rows.
			if a.Fn == AggMin || a.Fn == AggMax {
				cols = append(cols, zeroColvec(typ, nGroups))
			} else {
				cols = append(cols, colvec{floats: make([]float64, nGroups)})
			}
			continue
		}
		sts := make([]colAggState, nGroups)
		cv := b.cols[j]
		switch typ {
		case TypeInt:
			for i := 0; i < n; i++ {
				p, st := int32(b.phys(i)), &sts[gids[i]]
				v := cv.ints[p]
				st.sum += float64(v)
				if !st.seen || v < cv.ints[st.minP] {
					st.minP = p
				}
				if !st.seen || cv.ints[st.maxP] < v {
					st.maxP = p
				}
				st.seen = true
			}
		case TypeFloat:
			for i := 0; i < n; i++ {
				p, st := int32(b.phys(i)), &sts[gids[i]]
				v := cv.floats[p]
				st.sum += v
				if !st.seen || v < cv.floats[st.minP] {
					st.minP = p
				}
				if !st.seen || cv.floats[st.maxP] < v {
					st.maxP = p
				}
				st.seen = true
			}
		case TypeString:
			for i := 0; i < n; i++ {
				p, st := int32(b.phys(i)), &sts[gids[i]]
				v := cv.strs[p]
				if !st.seen || v < cv.strs[st.minP] {
					st.minP = p
				}
				if !st.seen || cv.strs[st.maxP] < v {
					st.maxP = p
				}
				st.seen = true
			}
		case TypeBool:
			for i := 0; i < n; i++ {
				p, st := int32(b.phys(i)), &sts[gids[i]]
				v := cv.bools[p]
				if !st.seen || (!v && cv.bools[st.minP]) {
					st.minP = p
				}
				if !st.seen || (!cv.bools[st.maxP] && v) {
					st.maxP = p
				}
				st.seen = true
			}
		}
		switch a.Fn {
		case AggSum, AggAvg:
			fs := make([]float64, nGroups)
			for g := range fs {
				fs[g] = sts[g].sum
				if a.Fn == AggAvg {
					fs[g] /= float64(counts[g])
				}
			}
			cols = append(cols, colvec{floats: fs})
		case AggMin, AggMax:
			pos := make([]int32, nGroups)
			for g := range pos {
				if a.Fn == AggMin {
					pos[g] = sts[g].minP
				} else {
					pos[g] = sts[g].maxP
				}
			}
			cols = append(cols, gather(cv, typ, pos))
		}
	}
	return cols
}

// --- distinct / order by ---

// Distinct removes duplicate rows, preserving first-appearance order.
// The result is a new selection over the shared column vectors; nothing
// is materialized.
func (b *ColumnBlock) Distinct(sc *Scratch) *ColumnBlock {
	sc = sc.orNew()
	n := b.Len()
	var sel []int32
	allIdx := make([]int, len(b.Schema))
	for j := range allIdx {
		allIdx[j] = j
	}
	if len(b.Schema) == 1 {
		// Single-column fast paths share the group-id machinery.
		_, firstP := b.groupIDs(allIdx, sc)
		return b.withSel(firstP)
	}
	seen := make(map[string]bool, n)
	buf := sc.keyBuf()
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for j := range b.Schema {
			buf = b.appendKeyAt(buf, i, j)
		}
		if !seen[string(buf)] {
			seen[string(buf)] = true
			sel = append(sel, int32(b.phys(i)))
		}
	}
	sc.putKey(buf)
	return b.withSel(sel)
}

// OrderBy stably sorts the block by the named column. Only the
// selection vector is permuted; column vectors are shared.
func (b *ColumnBlock) OrderBy(col string, desc bool) (*ColumnBlock, error) {
	j, err := b.ColIndex(col)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	sel := make([]int32, n)
	for i := 0; i < n; i++ {
		sel[i] = int32(b.phys(i))
	}
	var less func(a, bb int32) bool
	cv := b.cols[j]
	switch b.Schema[j].Type {
	case TypeInt:
		less = func(a, bb int32) bool { return cv.ints[a] < cv.ints[bb] }
	case TypeFloat:
		less = func(a, bb int32) bool { return cv.floats[a] < cv.floats[bb] }
	case TypeString:
		less = func(a, bb int32) bool { return cv.strs[a] < cv.strs[bb] }
	case TypeBool:
		less = func(a, bb int32) bool { return !cv.bools[a] && cv.bools[bb] }
	}
	sort.SliceStable(sel, func(x, y int) bool {
		if desc {
			return less(sel[y], sel[x])
		}
		return less(sel[x], sel[y])
	})
	return b.withSel(sel), nil
}
