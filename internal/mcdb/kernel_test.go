package mcdb_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
	"modeldata/internal/rng"
)

// pairDB builds a stochastic table over a deterministic items table
// (id, a, b): x is drawn per item from parameters (a, b). vg and batch
// are one library VG/BatchVG pair; a nil batch leaves the spec on the
// legacy adapter.
func pairDB(t testing.TB, vg mcdb.VG, batch mcdb.BatchVG, xType engine.Type) *mcdb.DB {
	t.Helper()
	base := engine.NewDatabase()
	items := engine.MustNewTable("items", engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "a", Type: engine.TypeFloat},
		{Name: "b", Type: engine.TypeFloat},
	})
	for i := 0; i < 9; i++ {
		// a spans small (Knuth) and large (PTRS) Poisson rates.
		items.MustInsert(engine.Int(int64(i)), engine.Float(0.5+float64(i*i)), engine.Float(1+float64(i%3)))
	}
	base.Put(items)
	db := mcdb.New(base)
	err := db.AddSpec(&mcdb.TableSpec{
		Name: "draws",
		Schema: engine.Schema{
			{Name: "id", Type: engine.TypeInt},
			{Name: "a", Type: engine.TypeFloat},
			{Name: "b", Type: engine.TypeFloat},
			{Name: "x", Type: xType},
		},
		ForEach: "items",
		Params: func(_ *engine.Database, outer engine.Row) (engine.Row, error) {
			return outer[1:3], nil
		},
		VG:            vg,
		Batch:         batch,
		UncertainCols: []int{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestLibraryBatchMatchesVG realizes every library VG/BatchVG pair
// both ways at several seeds and worker counts and requires identical
// bundles: same deterministic rows, same uncertain bits.
func TestLibraryBatchMatchesVG(t *testing.T) {
	pairs := []struct {
		name  string
		vg    mcdb.VG
		batch mcdb.BatchVG
		typ   engine.Type
	}{
		{"normal", mcdb.NormalVG(), mcdb.NormalBatch(), engine.TypeFloat},
		{"poisson", mcdb.PoissonVG(), mcdb.PoissonBatch(), engine.TypeInt},
		{"dist/normal", mcdb.DistVG(rng.NormalDist{Mu: 3, Sigma: 2}), mcdb.DistBatch(rng.NormalDist{Mu: 3, Sigma: 2}), engine.TypeFloat},
		{"dist/gamma", mcdb.DistVG(rng.GammaDist{Shape: 0.7, Scale: 2}), mcdb.DistBatch(rng.GammaDist{Shape: 0.7, Scale: 2}), engine.TypeFloat},
		{"dist/poisson", mcdb.DistVG(rng.PoissonDist{Lambda: 40}), mcdb.DistBatch(rng.PoissonDist{Lambda: 40}), engine.TypeFloat},
		{"dist/empirical", mcdb.DistVG(rng.EmpiricalDist{Values: []float64{1, 2, 5}}), mcdb.DistBatch(rng.EmpiricalDist{Values: []float64{1, 2, 5}}), engine.TypeFloat},
	}
	ctx := context.Background()
	for _, p := range pairs {
		legacy := pairDB(t, p.vg, nil, p.typ)
		batch := pairDB(t, p.vg, p.batch, p.typ)
		for _, seed := range []uint64{1, 7, 2014} {
			for _, workers := range []int{1, 3} {
				want, err := legacy.InstantiateBundledCtx(ctx, 33, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				got, err := batch.InstantiateBundledCtx(ctx, 33, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				w, g := want["draws"], got["draws"]
				for ti := range w.Det {
					for c := range w.Det[ti] {
						if w.Det[ti][c] != g.Det[ti][c] {
							t.Fatalf("%s seed %d: tuple %d det differs: %v vs %v", p.name, seed, ti, w.Det[ti], g.Det[ti])
						}
					}
					for it, v := range w.Unc[ti][0] {
						if math.Float64bits(v) != math.Float64bits(g.Unc[ti][0][it]) {
							t.Fatalf("%s seed %d workers %d: tuple %d iter %d: VG %v, batch %v",
								p.name, seed, workers, ti, it, v, g.Unc[ti][0][it])
						}
					}
				}
			}
		}
	}
}

// TestBatchSpecValidation: a Batch needs a nil OutputRow and trailing
// uncertain columns in order.
func TestBatchSpecValidation(t *testing.T) {
	schema := engine.Schema{
		{Name: "id", Type: engine.TypeInt},
		{Name: "x", Type: engine.TypeFloat},
		{Name: "y", Type: engine.TypeFloat},
	}
	ok := func() *mcdb.TableSpec {
		return &mcdb.TableSpec{Name: "t", Schema: schema, VG: mcdb.NormalVG(), Batch: mcdb.NormalBatch(),
			UncertainCols: []int{1, 2}}
	}
	if err := mcdb.New(nil).AddSpec(ok()); err != nil {
		t.Fatalf("trailing uncertain columns rejected: %v", err)
	}
	bad := map[string]func(s *mcdb.TableSpec){
		"output row": func(s *mcdb.TableSpec) {
			s.OutputRow = func(outer engine.Row, vgOut []engine.Value) engine.Row { return append(outer, vgOut...) }
		},
		"not trailing": func(s *mcdb.TableSpec) { s.UncertainCols = []int{0, 1} },
		"out of order": func(s *mcdb.TableSpec) { s.UncertainCols = []int{2, 1} },
		"gap":          func(s *mcdb.TableSpec) { s.UncertainCols = []int{1} },
	}
	for name, mutate := range bad {
		s := ok()
		mutate(s)
		if err := mcdb.New(nil).AddSpec(s); !errors.Is(err, mcdb.ErrBadSpec) {
			t.Fatalf("%s: got %v, want ErrBadSpec", name, err)
		}
	}
}

// TestBundleKernelSpecErrors: the bundle kernel keeps the row path's
// checks — a VG output of the wrong width and a non-numeric uncertain
// value are ErrBadSpec, on both the legacy adapter and the batch form.
func TestBundleKernelSpecErrors(t *testing.T) {
	cases := map[string]mcdb.VG{
		"legacy width": func(engine.Row, *rng.Stream) ([]engine.Value, error) {
			return []engine.Value{engine.Float(1), engine.Float(2)}, nil
		},
		"legacy non-numeric": func(engine.Row, *rng.Stream) ([]engine.Value, error) {
			return []engine.Value{engine.Str("high")}, nil
		},
	}
	for name, vg := range cases {
		db := pairDB(t, vg, nil, engine.TypeFloat)
		if _, err := db.InstantiateBundled(3, 1); !errors.Is(err, mcdb.ErrBadSpec) {
			t.Fatalf("%s: got %v, want ErrBadSpec", name, err)
		}
	}
	// A batch spec whose FOR EACH rows are wider than the schema
	// leaves: the batch would fill columns past the outer row.
	base := engine.NewDatabase()
	wide := engine.MustNewTable("wide", engine.Schema{
		{Name: "a", Type: engine.TypeFloat}, {Name: "b", Type: engine.TypeFloat},
	})
	wide.MustInsert(engine.Float(1), engine.Float(2))
	base.Put(wide)
	db := mcdb.New(base)
	if err := db.AddSpec(&mcdb.TableSpec{
		Name:          "w",
		Schema:        engine.Schema{{Name: "a", Type: engine.TypeFloat}, {Name: "x", Type: engine.TypeFloat}},
		ForEach:       "wide",
		VG:            mcdb.NormalVG(),
		Batch:         mcdb.NormalBatch(),
		UncertainCols: []int{1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InstantiateBundled(3, 1); !errors.Is(err, mcdb.ErrBadSpec) {
		t.Fatalf("batch width: got %v, want ErrBadSpec", err)
	}
}

// TestDeltaVGBypassesBatch: a what-if that replaces the VG must sample
// through the replacement, never through the spec's Batch, while a
// Params-only what-if keeps the spec's Batch.
func TestDeltaVGBypassesBatch(t *testing.T) {
	var calls atomic.Int64
	normal := mcdb.NormalBatch()
	counted := func(params engine.Row, r *rng.Stream, out [][]float64) error {
		calls.Add(1)
		return normal(params, r, out)
	}
	db := pairDB(t, mcdb.NormalVG(), counted, engine.TypeFloat)
	s := db.NewSession()
	q := mcdb.AggQuery{Table: "draws", Col: "x", Fn: engine.AggSum}
	opts := mcdb.ExecOptions{Iterations: 20, Seed: 3}
	if _, err := s.Exec(context.Background(), q, opts); err != nil {
		t.Fatal(err)
	}
	base := calls.Load()
	if base != 9 {
		t.Fatalf("baseline realization made %d batch calls, want one per tuple (9)", base)
	}
	odd := func(det engine.Row) bool { return det[0].AsInt()%2 == 1 }
	vgDelta := mcdb.Delta{Table: "draws", Where: odd, VG: mcdb.DistVG(rng.UniformDist{Lo: 0, Hi: 1})}
	if _, err := s.ExecDelta(context.Background(), q, opts, vgDelta); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != base {
		t.Fatalf("VG replacement called the spec's Batch %d times", got-base)
	}
	paramsDelta := mcdb.Delta{Table: "draws", Where: odd,
		Params: func(*engine.Database, engine.Row) (engine.Row, error) {
			return engine.Row{engine.Float(0), engine.Float(1)}, nil
		}}
	if _, err := s.ExecDelta(context.Background(), q, opts, paramsDelta); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != base+4 {
		t.Fatalf("Params what-if made %d batch calls, want one per affected tuple (4)", got-base)
	}
}

// sbpForms returns the SBP fixture with its batch VG form and the same
// fixture forced onto the legacy VG adapter.
func sbpForms(t testing.TB, patients int) map[string]*mcdb.DB {
	t.Helper()
	forms := map[string]*mcdb.DB{}
	for _, form := range []string{"legacy", "batch"} {
		db, err := experiments.SBPDatabase(patients)
		if err != nil {
			t.Fatal(err)
		}
		if form == "legacy" {
			spec, err := db.Spec("sbp_data")
			if err != nil {
				t.Fatal(err)
			}
			spec.Batch = nil
		}
		forms[form] = db
	}
	return forms
}

// TestBundleAllocationsStructural gates the kernel on allocation
// counts, never time: a Batch spec allocates the same at 10 and at
// 1000 iterations (nothing per draw), and the legacy adapter allocates
// at most one object — the VG's own result — per (tuple, iteration).
func TestBundleAllocationsStructural(t *testing.T) {
	const patients = 20
	forms := sbpForms(t, patients)
	allocs := func(db *mcdb.DB, iters int) float64 {
		seed := uint64(0)
		return testing.AllocsPerRun(5, func() {
			seed++
			if _, err := db.InstantiateBundledCtx(context.Background(), iters, seed, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	b10, b1000 := allocs(forms["batch"], 10), allocs(forms["batch"], 1000)
	if b10 != b1000 {
		t.Fatalf("batch spec allocations grow with iterations: %v at 10, %v at 1000", b10, b1000)
	}
	l10, l1000 := allocs(forms["legacy"], 10), allocs(forms["legacy"], 1000)
	perDraw := (l1000 - l10) / (patients * 990)
	if perDraw > 1 {
		t.Fatalf("legacy adapter allocates %.2f objects per (tuple, iteration), want ≤ 1", perDraw)
	}
}

// BenchmarkBundleRealize times one cold bundle realization of the SBP
// fixture (100 patients, 1000 iterations) through the legacy VG adapter
// and through the batch form. Run with -benchmem: the per-op
// allocation count is the figure the kernel is designed around.
func BenchmarkBundleRealize(b *testing.B) {
	forms := sbpForms(b, 100)
	for _, form := range []string{"legacy", "batch"} {
		db := forms[form]
		b.Run(form, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.InstantiateBundledCtx(context.Background(), 1000, uint64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
