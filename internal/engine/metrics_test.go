package engine

import (
	"strings"
	"testing"

	"modeldata/internal/obs"
)

// TestColPathCounterFires checks that a query execution counts
// engine.colpath.
func TestColPathCounterFires(t *testing.T) {
	clean := &Table{
		Name: "clean",
		Schema: Schema{
			{Name: "id", Type: TypeInt},
			{Name: "x", Type: TypeFloat},
		},
		Rows: []Row{
			{Int(1), Float(1.5)},
			{Int(2), Float(2.5)},
		},
	}
	colBefore := obs.Default().Counter(MetricColQueries).Value()
	if _, err := From(clean).WhereFloat("x", func(v float64) bool { return v > 2 }).Run(); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter(MetricColQueries).Value(); got <= colBefore {
		t.Fatalf("engine.colpath did not advance: before=%d after=%d", colBefore, got)
	}
}

// TestRowsScannedOncePerSource pins engine.rows_scanned's meaning: the
// rows of every source relation, counted once when it is read, however
// many operators then run over them.
func TestRowsScannedOncePerSource(t *testing.T) {
	const n = 37
	src := MustNewTable("src", Schema{{Name: "k", Type: TypeInt}, {Name: "x", Type: TypeFloat}})
	for i := 0; i < n; i++ {
		src.MustInsert(Int(int64(i%4)), Float(float64(i)))
	}
	dim := MustNewTable("dim", Schema{{Name: "k", Type: TypeInt}})
	for i := 0; i < 3; i++ {
		dim.MustInsert(Int(int64(i)))
	}
	scanned := func(q *Query) int64 {
		t.Helper()
		before := obs.Default().Counter(MetricRowsScanned).Value()
		if _, err := q.Run(); err != nil {
			t.Fatal(err)
		}
		return obs.Default().Counter(MetricRowsScanned).Value() - before
	}
	if got := scanned(From(src).GroupBy([]string{"k"}, Aggregate{Fn: AggSum, Col: "x", As: "s"})); got != n {
		t.Fatalf("group-by over %d rows scanned %d", n, got)
	}
	filtered := From(src).
		WhereFloat("x", func(v float64) bool { return v > 5 }).
		Distinct().
		OrderBy("x", true)
	if got := scanned(filtered); got != n {
		t.Fatalf("filter+distinct+order-by over %d rows scanned %d", n, got)
	}
	for _, on := range []bool{false, true} {
		if got := scanned(From(src).Join(dim, "k", "k").WithPlanner(on)); got != n+3 {
			t.Fatalf("join (planner %v) scanned %d, want %d", on, got, n+3)
		}
	}
	if got := scanned(FromStorage(src).Limit(1)); got != n {
		t.Fatalf("storage scan of %d rows scanned %d", n, got)
	}
}

// TestMetricNamesFollowScheme guards the DESIGN.md §8 naming scheme:
// engine metrics live under the "engine." prefix.
func TestMetricNamesFollowScheme(t *testing.T) {
	for _, name := range []string{MetricColQueries, MetricRowsScanned} {
		if !strings.HasPrefix(name, "engine.") {
			t.Errorf("metric %q does not carry the engine. prefix", name)
		}
	}
}
