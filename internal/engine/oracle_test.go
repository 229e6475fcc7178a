package engine

// Row-at-a-time reference operators: the oracle the golden suite
// (golden_test.go) checks the columnar kernels against. Each one is
// the obvious implementation over []Row — hash join building on the
// smaller side, first-appearance group and distinct order, stable
// sort — so a disagreement points at the kernel. They are test code
// only; queries run on ColumnBlocks.

import (
	"fmt"
	"sort"
)

// appendRowKey appends the composite key of the row restricted to the
// given column indexes. Concatenation of self-delimiting encodings is
// injective, so composite keys collide iff every component key matches.
func appendRowKey(dst []byte, r Row, idx []int) []byte {
	for _, j := range idx {
		dst = r[j].AppendKey(dst)
	}
	return dst
}

// rowSelect returns the rows of t that satisfy pred. Rows are shared,
// not copied.
func rowSelect(t *Table, pred func(Row) bool) *Table {
	out := &Table{Name: t.Name, Schema: t.Schema.Clone()}
	for _, r := range t.Rows {
		if pred(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// rowProject returns a new table with only the named columns, in order.
func rowProject(t *Table, cols ...string) (*Table, error) {
	idx := make([]int, len(cols))
	schema := make(Schema, len(cols))
	for i, c := range cols {
		j, err := t.ColIndex(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
		schema[i] = t.Schema[j]
	}
	out := &Table{Name: t.Name, Schema: schema}
	out.Rows = make([]Row, len(t.Rows))
	for ri, r := range t.Rows {
		nr := make(Row, len(idx))
		for i, j := range idx {
			nr[i] = r[j]
		}
		out.Rows[ri] = nr
	}
	return out, nil
}

// rowRename returns a shallow copy of t with column old renamed to new.
func rowRename(t *Table, oldName, newName string) (*Table, error) {
	j, err := t.ColIndex(oldName)
	if err != nil {
		return nil, err
	}
	out := &Table{Name: t.Name, Schema: t.Schema.Clone(), Rows: t.Rows}
	out.Schema[j].Name = newName
	return out, nil
}

// rowEquiJoin computes the hash equijoin of l and r on l.leftCol =
// r.rightCol, building on the smaller side (ties build right). Output
// columns are prefixed with their table names.
func rowEquiJoin(l, r *Table, leftCol, rightCol string) (*Table, error) {
	li, err := l.ColIndex(leftCol)
	if err != nil {
		return nil, fmt.Errorf("join left: %w", err)
	}
	ri, err := r.ColIndex(rightCol)
	if err != nil {
		return nil, fmt.Errorf("join right: %w", err)
	}
	build, probe := r, l
	bi, pi := ri, li
	swapped := false
	if len(l.Rows) < len(r.Rows) {
		build, probe = l, r
		bi, pi = li, ri
		swapped = true
	}
	ht := make(map[string][]Row, len(build.Rows))
	var keyBuf []byte
	for _, row := range build.Rows {
		keyBuf = row[bi].AppendKey(keyBuf[:0])
		ht[string(keyBuf)] = append(ht[string(keyBuf)], row)
	}
	out := &Table{
		Name:   l.Name + "_" + r.Name,
		Schema: append(prefixSchemaNamed(l.Name, l.Schema), prefixSchemaNamed(r.Name, r.Schema)...),
	}
	for _, prow := range probe.Rows {
		keyBuf = prow[pi].AppendKey(keyBuf[:0])
		for _, brow := range ht[string(keyBuf)] {
			lrow, rrow := prow, brow
			if swapped {
				lrow, rrow = brow, prow
			}
			nr := make(Row, 0, len(lrow)+len(rrow))
			nr = append(nr, lrow...)
			nr = append(nr, rrow...)
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

type aggState struct {
	count    int64
	sum      float64
	min, max Value
	seen     bool
}

// rowGroupBy groups t by the key columns and computes the aggregates
// per group, in first-appearance order. With no key columns a single
// global group is produced even over empty input; its MIN and MAX are
// the zero value of the aggregated column's type.
func rowGroupBy(t *Table, keys []string, aggs []Aggregate) (*Table, error) {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		j, err := t.ColIndex(k)
		if err != nil {
			return nil, err
		}
		keyIdx[i] = j
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Fn == AggCount {
			aggIdx[i] = -1
			continue
		}
		j, err := t.ColIndex(a.Col)
		if err != nil {
			return nil, err
		}
		aggIdx[i] = j
	}

	type group struct {
		keyVals Row
		states  []aggState
	}
	groups := make(map[string]*group)
	order := []string{}
	var keyBuf []byte
	for _, r := range t.Rows {
		keyBuf = appendRowKey(keyBuf[:0], r, keyIdx)
		g, ok := groups[string(keyBuf)]
		if !ok {
			kv := make(Row, len(keyIdx))
			for i, j := range keyIdx {
				kv[i] = r[j]
			}
			g = &group{keyVals: kv, states: make([]aggState, len(aggs))}
			k := string(keyBuf)
			groups[k] = g
			order = append(order, k)
		}
		for i := range aggs {
			st := &g.states[i]
			st.count++
			if aggIdx[i] < 0 {
				continue
			}
			v := r[aggIdx[i]]
			if v.IsNumeric() {
				st.sum += v.AsFloat()
			}
			if !st.seen || v.Less(st.min) {
				st.min = v
			}
			if !st.seen || st.max.Less(v) {
				st.max = v
			}
			st.seen = true
		}
	}
	if len(keys) == 0 && len(groups) == 0 {
		groups[""] = &group{states: make([]aggState, len(aggs))}
		order = append(order, "")
	}

	schema := make(Schema, 0, len(keys)+len(aggs))
	for i, k := range keys {
		schema = append(schema, Column{Name: k, Type: t.Schema[keyIdx[i]].Type})
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
			typ = t.Schema[aggIdx[i]].Type
		}
		schema = append(schema, Column{Name: name, Type: typ})
	}
	out, err := NewTable(t.Name+"_group", schema)
	if err != nil {
		return nil, err
	}
	for _, k := range order {
		g := groups[k]
		row := make(Row, 0, len(schema))
		row = append(row, g.keyVals...)
		for i, a := range aggs {
			st := g.states[i]
			switch a.Fn {
			case AggCount:
				row = append(row, Int(st.count))
			case AggSum:
				row = append(row, Float(st.sum))
			case AggAvg:
				if st.count == 0 {
					row = append(row, Float(0))
				} else {
					row = append(row, Float(st.sum/float64(st.count)))
				}
			case AggMin, AggMax:
				switch {
				case !st.seen:
					row = append(row, zeroValue(t.Schema[aggIdx[i]].Type))
				case a.Fn == AggMin:
					row = append(row, st.min)
				default:
					row = append(row, st.max)
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// zeroValue is the zero Value of typ.
func zeroValue(typ Type) Value {
	switch typ {
	case TypeFloat:
		return Float(0)
	case TypeString:
		return Str("")
	case TypeBool:
		return Bool(false)
	}
	return Int(0)
}

// rowDistinct removes duplicate rows, preserving first-appearance order.
func rowDistinct(t *Table) *Table {
	seen := make(map[string]bool, len(t.Rows))
	out := &Table{Name: t.Name, Schema: t.Schema.Clone()}
	var keyBuf []byte
	for _, r := range t.Rows {
		keyBuf = keyBuf[:0]
		for _, v := range r {
			keyBuf = v.AppendKey(keyBuf)
		}
		if !seen[string(keyBuf)] {
			seen[string(keyBuf)] = true
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// rowOrderBy stably sorts the table by the named column.
func rowOrderBy(t *Table, col string, desc bool) (*Table, error) {
	j, err := t.ColIndex(col)
	if err != nil {
		return nil, err
	}
	out := &Table{Name: t.Name, Schema: t.Schema.Clone()}
	out.Rows = make([]Row, len(t.Rows))
	copy(out.Rows, t.Rows)
	sort.SliceStable(out.Rows, func(a, b int) bool {
		if desc {
			return out.Rows[b][j].Less(out.Rows[a][j])
		}
		return out.Rows[a][j].Less(out.Rows[b][j])
	})
	return out, nil
}

// rowLimit returns at most n rows of t.
func rowLimit(t *Table, n int) *Table {
	out := &Table{Name: t.Name, Schema: t.Schema.Clone()}
	if n > len(t.Rows) {
		n = len(t.Rows)
	}
	if n < 0 {
		n = 0
	}
	out.Rows = append(out.Rows, t.Rows[:n]...)
	return out
}
