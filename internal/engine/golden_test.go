package engine

// Golden-equivalence suite: every columnar operator must produce a
// byte-identical table to its row-at-a-time reference in
// oracle_test.go — same schema, same row order, same Value payload
// bits — on randomized inputs that cover the awkward corners of the
// key encoding (NaN, -0, int64s beyond float64 precision, strings
// containing the old separator byte, empty results). Equality is
// checked down to float bit patterns, not tolerances.

import (
	"fmt"
	"math"
	"testing"

	"modeldata/internal/rng"
)

// sameValueBits reports whether two Values are indistinguishable.
// Floats compare by bit pattern (so -0 vs +0 is a difference), except
// that all NaNs form one equivalence class: values the operators copy
// (keys, MIN/MAX) keep their exact payloads on both paths, but a NaN
// produced by arithmetic (SUM/AVG) has no payload guarantee — the
// compiler may order commutative float additions differently per code
// shape, and the hardware propagates whichever operand's payload comes
// first. The engine itself treats every NaN as one key ("nNaN").
func sameValueBits(a, b Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case TypeFloat:
		af, bf := a.AsFloat(), b.AsFloat()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return math.IsNaN(af) && math.IsNaN(bf)
		}
		return math.Float64bits(af) == math.Float64bits(bf)
	default:
		return a.Key() == b.Key() && a.String() == b.String()
	}
}

// requireSameTable fails the test unless the two tables are
// byte-identical: same name, schema, row count, and every Value equal
// down to payload bits. nil Rows and empty Rows are the same relation.
func requireSameTable(t *testing.T, label string, want, got *Table) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("%s: name %q vs %q", label, want.Name, got.Name)
	}
	if len(want.Schema) != len(got.Schema) {
		t.Fatalf("%s: schema width %d vs %d", label, len(want.Schema), len(got.Schema))
	}
	for j := range want.Schema {
		if want.Schema[j] != got.Schema[j] {
			t.Fatalf("%s: schema[%d] %+v vs %+v", label, j, want.Schema[j], got.Schema[j])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			t.Fatalf("%s: row %d arity %d vs %d", label, i, len(want.Rows[i]), len(got.Rows[i]))
		}
		for j := range want.Rows[i] {
			if !sameValueBits(want.Rows[i][j], got.Rows[i][j]) {
				t.Fatalf("%s: row %d col %d: %v (key %q) vs %v (key %q)",
					label, i, j,
					want.Rows[i][j], want.Rows[i][j].Key(),
					got.Rows[i][j], got.Rows[i][j].Key())
			}
		}
	}
}

// randomValue draws a Value of the given type, biased toward collisions
// (small domains) and toward the encoder's corner cases.
func randomValue(r *rng.Stream, typ Type) Value {
	switch typ {
	case TypeInt:
		switch r.Intn(8) {
		case 0:
			// Beyond float64 precision: exercises the keyTagBig escape.
			return Int((int64(1) << 53) + 1 + int64(r.Intn(5)))
		case 1:
			return Int(-((int64(1) << 53) + 3 + int64(r.Intn(5))))
		default:
			return Int(int64(r.Intn(7)) - 3)
		}
	case TypeFloat:
		switch r.Intn(10) {
		case 0:
			return Float(math.NaN())
		case 1:
			return Float(math.Copysign(0, -1))
		case 2:
			return Float(math.Inf(1 - 2*r.Intn(2)))
		default:
			return Float(float64(r.Intn(7)) - 3)
		}
	case TypeString:
		// Includes the empty string and strings containing the old
		// "\x00" separator byte, which the length-prefixed encoding
		// must keep distinct from column boundaries.
		choices := []string{"", "a", "b", "ab", "a\x00", "\x00a", "a\x00b", "xyz"}
		return Str(choices[r.Intn(len(choices))])
	default:
		return Bool(r.Intn(2) == 0)
	}
}

// randomTable builds a table of n rows over a fixed mixed schema.
func randomTable(r *rng.Stream, name string, n int) *Table {
	schema := Schema{
		{Name: "id", Type: TypeInt},
		{Name: "x", Type: TypeFloat},
		{Name: "tag", Type: TypeString},
		{Name: "flag", Type: TypeBool},
	}
	t := &Table{Name: name, Schema: schema}
	for i := 0; i < n; i++ {
		row := make(Row, len(schema))
		for j, c := range schema {
			row[j] = randomValue(r, c.Type)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// mustBlock decodes t, failing the test on error (golden tables are
// always strictly typed).
func mustBlock(t *testing.T, tbl *Table) *ColumnBlock {
	t.Helper()
	b, err := FromTable(tbl)
	if err != nil {
		t.Fatalf("FromTable(%s): %v", tbl.Name, err)
	}
	return b
}

func TestGoldenRoundTrip(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 20; trial++ {
		tbl := randomTable(r.Split(), "rt", r.Intn(40))
		requireSameTable(t, "round-trip", tbl, mustBlock(t, tbl).ToTable())
	}
}

func TestGoldenWhere(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 30; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "w", tr.Intn(60))
		b := mustBlock(t, tbl)

		probe := randomValue(tr, Type(tr.Intn(4)))
		for _, col := range []string{"id", "x", "tag", "flag"} {
			j, _ := tbl.ColIndex(col)
			want := rowSelect(tbl, func(row Row) bool { return row[j].Equal(probe) })
			got, err := b.WhereEq(col, probe)
			if err != nil {
				t.Fatalf("WhereEq: %v", err)
			}
			requireSameTable(t, "WhereEq("+col+")", want, got.ToTable())
		}

		cut := float64(tr.Intn(5)) - 2
		pred := func(f float64) bool { return f < cut }
		for _, col := range []string{"id", "x"} {
			j, _ := tbl.ColIndex(col)
			want := rowSelect(tbl, func(row Row) bool { return row[j].IsNumeric() && pred(row[j].AsFloat()) })
			got, err := b.WhereFloat(col, pred)
			if err != nil {
				t.Fatalf("WhereFloat: %v", err)
			}
			requireSameTable(t, "WhereFloat("+col+")", want, got.ToTable())
		}

		sPred := func(s string) bool { return len(s) >= 2 }
		jj, _ := tbl.ColIndex("tag")
		want := rowSelect(tbl, func(row Row) bool { return row[jj].Type() == TypeString && sPred(row[jj].AsString()) })
		got, err := b.WhereString("tag", sPred)
		if err != nil {
			t.Fatalf("WhereString: %v", err)
		}
		requireSameTable(t, "WhereString", want, got.ToTable())
	}
}

func TestGoldenProjectRenameLimit(t *testing.T) {
	r := rng.New(43)
	for trial := 0; trial < 20; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "p", tr.Intn(40))
		b := mustBlock(t, tbl)

		want, err := rowProject(tbl, "tag", "id")
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Project("tag", "id")
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, "Project", want, got.ToTable())

		want, err = rowRename(tbl, "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		got, err = b.Rename("x", "y")
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, "Rename", want, got.ToTable())

		n := tr.Intn(50)
		requireSameTable(t, "Limit", rowLimit(tbl, n), b.Limit(n).ToTable())
	}
}

func TestGoldenEquiJoin(t *testing.T) {
	r := rng.New(44)
	cols := []string{"id", "x", "tag", "flag"}
	for trial := 0; trial < 30; trial++ {
		tr := r.Split()
		l := randomTable(tr, "l", tr.Intn(50))
		rt := randomTable(tr, "r", tr.Intn(50))
		lb, rb := mustBlock(t, l), mustBlock(t, rt)
		sc := NewScratch()
		for _, lc := range cols {
			for _, rc := range cols {
				want, err := rowEquiJoin(l, rt, lc, rc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := lb.EquiJoin(rb, lc, rc, sc)
				if err != nil {
					t.Fatal(err)
				}
				requireSameTable(t, "EquiJoin("+lc+","+rc+")", want, got.ToTable())
			}
		}
	}
}

func TestGoldenGroupBy(t *testing.T) {
	r := rng.New(45)
	aggSets := [][]Aggregate{
		{{Fn: AggCount, As: "n"}},
		{{Fn: AggSum, Col: "x", As: "sx"}, {Fn: AggAvg, Col: "id", As: "ai"}},
		{{Fn: AggMin, Col: "x", As: "mnx"}, {Fn: AggMax, Col: "x", As: "mxx"}},
		{{Fn: AggMin, Col: "tag", As: "mnt"}, {Fn: AggMax, Col: "flag", As: "mxf"}},
		{{Fn: AggCount, As: "n"}, {Fn: AggSum, Col: "id", As: "si"},
			{Fn: AggMin, Col: "id", As: "mni"}, {Fn: AggMax, Col: "tag", As: "mxt"}},
	}
	keySets := [][]string{nil, {"tag"}, {"id"}, {"x"}, {"flag"}, {"tag", "flag"}, {"id", "x"}}
	for trial := 0; trial < 12; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "g", tr.Intn(60))
		b := mustBlock(t, tbl)
		for _, keys := range keySets {
			for ai, aggs := range aggSets {
				want, err := rowGroupBy(tbl, keys, aggs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := b.GroupBy(keys, aggs, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireSameTable(t, fmt.Sprintf("GroupBy(keys=%v aggs=%d)", keys, ai), want, got.ToTable())
			}
		}
	}
}

func TestGoldenGroupByEmptyGlobal(t *testing.T) {
	tbl := randomTable(rng.New(9), "empty", 0)
	b := mustBlock(t, tbl)
	aggs := []Aggregate{
		{Fn: AggCount, As: "n"}, {Fn: AggSum, Col: "x", As: "s"},
		{Fn: AggMin, Col: "x", As: "mn"}, {Fn: AggMax, Col: "tag", As: "mx"},
	}
	want, err := rowGroupBy(tbl, nil, aggs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.GroupBy(nil, aggs, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, "empty global group", want, got.ToTable())
}

func TestGoldenDistinctOrderBy(t *testing.T) {
	r := rng.New(46)
	for trial := 0; trial < 20; trial++ {
		tr := r.Split()
		tbl := randomTable(tr, "d", tr.Intn(60))
		b := mustBlock(t, tbl)
		sc := NewScratch()

		requireSameTable(t, "Distinct", rowDistinct(tbl), b.Distinct(sc).ToTable())

		// Single-column distinct exercises the code-based fast path.
		proj, err := rowProject(tbl, "x")
		if err != nil {
			t.Fatal(err)
		}
		pb := mustBlock(t, proj)
		requireSameTable(t, "Distinct(single)", rowDistinct(proj), pb.Distinct(sc).ToTable())

		for _, col := range []string{"id", "x", "tag", "flag"} {
			for _, desc := range []bool{false, true} {
				want, err := rowOrderBy(tbl, col, desc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := b.OrderBy(col, desc)
				if err != nil {
					t.Fatal(err)
				}
				requireSameTable(t, "OrderBy("+col+")", want, got.ToTable())
			}
		}
	}
}

// TestGoldenQueryPipeline drives the public Query API over chained
// operations and checks the result against the same chain built from
// the oracle operators directly.
func TestGoldenQueryPipeline(t *testing.T) {
	r := rng.New(47)
	for trial := 0; trial < 15; trial++ {
		tr := r.Split()
		people := randomTable(tr, "people", 20+tr.Intn(40))
		ref := randomTable(tr, "ref", tr.Intn(20))

		got, err := From(people).
			WhereFloat("x", func(f float64) bool { return f > -1 }).
			Join(ref, "id", "id").
			Select("people.tag", "people.x", "ref.id").
			Distinct().
			OrderBy("people.tag", false).
			Limit(25).
			Run()
		if err != nil {
			t.Fatal(err)
		}

		j, _ := people.ColIndex("x")
		step := rowSelect(people, func(row Row) bool { return row[j].IsNumeric() && row[j].AsFloat() > -1 })
		step, err = rowEquiJoin(step, ref, "id", "id")
		if err != nil {
			t.Fatal(err)
		}
		step, err = rowProject(step, "people.tag", "people.x", "ref.id")
		if err != nil {
			t.Fatal(err)
		}
		step = rowDistinct(step)
		step, err = rowOrderBy(step, "people.tag", false)
		if err != nil {
			t.Fatal(err)
		}
		step = rowLimit(step, 25)

		requireSameTable(t, "query pipeline", step, got)
	}
}
