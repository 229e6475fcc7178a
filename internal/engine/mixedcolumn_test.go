package engine

import (
	"errors"
	"testing"
)

// Decoding applies Table.Insert's type rule: a value carries its
// column's type or is an int in a float column, which widens. Anything
// else is ErrMixedColumn, returned to the caller by every entry point.

func TestMixedColumnIntWidensToFloat(t *testing.T) {
	tbl := &Table{
		Name:   "mixed",
		Schema: Schema{{Name: "id", Type: TypeInt}, {Name: "x", Type: TypeFloat}},
		Rows: []Row{
			{Int(1), Float(1.5)},
			{Int(2), Int(7)}, // dynamic int in a float column
			{Int(3), Float(-2)},
		},
	}
	got, err := From(tbl).WhereFloat("x", func(f float64) bool { return f > 0 }).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := &Table{
		Name:   "mixed",
		Schema: tbl.Schema,
		Rows:   []Row{{Int(1), Float(1.5)}, {Int(2), Float(7)}},
	}
	requireSameTable(t, "widened", want, got)
}

func TestMixedColumnIsAnError(t *testing.T) {
	tbl := &Table{
		Name:   "mixed",
		Schema: Schema{{Name: "id", Type: TypeInt}, {Name: "x", Type: TypeFloat}},
		Rows: []Row{
			{Int(1), Float(1.5)},
			{Str("two"), Float(2)}, // string in an int column
		},
	}
	if _, err := FromTable(tbl); !errors.Is(err, ErrMixedColumn) {
		t.Fatalf("FromTable: got %v, want ErrMixedColumn", err)
	}
	q := From(tbl).WhereFloat("x", func(f float64) bool { return f > 0 })
	if _, err := q.Run(); !errors.Is(err, ErrMixedColumn) {
		t.Fatalf("Run: got %v, want ErrMixedColumn", err)
	}
	if _, err := q.Count(); !errors.Is(err, ErrMixedColumn) {
		t.Fatalf("Count: got %v, want ErrMixedColumn", err)
	}
	if _, err := q.WithProvenance().Run(); !errors.Is(err, ErrMixedColumn) {
		t.Fatalf("WithProvenance Run: got %v, want ErrMixedColumn", err)
	}
	// As the right side of a join, through the planner and without it.
	clean := MustNewTable("clean", Schema{{Name: "id", Type: TypeInt}})
	clean.MustInsert(Int(1))
	for _, on := range []bool{false, true} {
		if _, err := From(clean).Join(tbl, "id", "id").WithPlanner(on).Run(); !errors.Is(err, ErrMixedColumn) {
			t.Fatalf("join (planner %v): got %v, want ErrMixedColumn", on, err)
		}
	}
}

func TestMixedColumnSQLIsAnError(t *testing.T) {
	tbl := &Table{
		Name:   "mixed",
		Schema: Schema{{Name: "id", Type: TypeInt}, {Name: "x", Type: TypeFloat}},
		Rows: []Row{
			{Int(1), Float(1.5)},
			{Str("two"), Float(2)}, // string in an int column
		},
	}
	db := NewDatabase()
	db.Put(tbl)
	if _, err := db.Query("SELECT id FROM mixed"); !errors.Is(err, ErrMixedColumn) {
		t.Fatalf("Database.Query: got %v, want ErrMixedColumn", err)
	}
	if _, err := db.Query("SELECT id, SUM(x) FROM mixed GROUP BY id"); !errors.Is(err, ErrMixedColumn) {
		t.Fatalf("Database.Query group-by: got %v, want ErrMixedColumn", err)
	}
}

func TestRaggedRowIsAnError(t *testing.T) {
	tbl := &Table{
		Name:   "ragged",
		Schema: Schema{{Name: "id", Type: TypeInt}, {Name: "x", Type: TypeFloat}},
		Rows:   []Row{{Int(1), Float(1.5)}, {Int(2)}},
	}
	if _, err := From(tbl).Run(); !errors.Is(err, ErrArity) {
		t.Fatalf("got %v, want ErrArity", err)
	}
}
