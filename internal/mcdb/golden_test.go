package mcdb_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
	"modeldata/internal/rng"
)

// The bundle-vs-bundle suites (workers, shards, delta vs full) compare
// the realization code with itself, so a change to the per-tuple
// kernel that shifts every draw the same way passes all of them. The
// constants below were recorded from the row-at-a-time kernel that
// preceded the batch VG form; they pin the SBP fixture's realized
// samples to the bit.

const (
	goldenPatients = 6
	goldenIters    = 8
	goldenSeed     = 42
)

// goldenBits maps each case to the math.Float64bits of its output:
// the sample vector for Exec/ExecDelta cases, and the bundle's
// uncertain values in (tuple, iteration) order for InstantiateBundled
// cases.
var goldenBits = map[string][]uint64{
	"exec/count": {
		0x4018000000000000, 0x4018000000000000, 0x4018000000000000, 0x4018000000000000,
		0x4018000000000000, 0x4018000000000000, 0x4018000000000000, 0x4018000000000000,
	},
	"exec/sum": {
		0x408591a98804ac43, 0x40858a41cc733604, 0x40864e5bc31edaac, 0x4087ceb5b71bfcca,
		0x40872d02bea141b0, 0x4086944434103e48, 0x4085b03e6daf854d, 0x4085782a973d4bd2,
	},
	"exec/avg": {
		0x405cc23760063b04, 0x405cb857bb444805, 0x405dbdcfaed3ce3b, 0x405fbe479ecffbb8,
		0x405ee6ae5381aceb, 0x405e1b059ac0530b, 0x405ceafde794b1bc, 0x405ca038c9a70fc3,
	},
	"exec/avg_det": {
		0x405d90b88796b0fd, 0x405eeae23d9da217, 0x40607515f5a04fe6, 0x405dabd6ba10c595,
		0x405f71fb37a98829, 0x405e3e3d000af950, 0x405d9132e826c000, 0x405cf3204fc882d8,
	},
	"exec/count_unc": {
		0x0000000000000000, 0x3ff0000000000000, 0x4000000000000000, 0x4010000000000000,
		0x4010000000000000, 0x4008000000000000, 0x4000000000000000, 0x3ff0000000000000,
	},
	"exec/sum_det_unc": {
		0x0000000000000000, 0x40609b9c56e9f5b4, 0x40716c706e968773, 0x405fbd0ce9f14c16,
		0x40702e836dadaf4a, 0x407025c69ff78190, 0x4060dc7dfac2c9a7, 0x4060f20d1cecb7ff,
	},
	"exec/avg_det_unc": {
		0x0000000000000000, 0x40609b9c56e9f5b4, 0x40616c706e968773, 0x405fbd0ce9f14c16,
		0x40602e836dadaf4a, 0x406025c69ff78190, 0x4060dc7dfac2c9a7, 0x4060f20d1cecb7ff,
	},
	"delta/mapunc": {
		0x405e68007c7284df, 0x405e4bd53150071f, 0x405f51e24158f478, 0x4060d78ed2b1f8b5,
		0x4060559fffbcaee7, 0x405fda9cb7063549, 0x405e94d4bfee6d1c, 0x405e4a7cd9d42465,
	},
	"delta/vg": {
		0x40870801759511d2, 0x40875c2269c07063, 0x40881d525c634cba, 0x4087cd91d90dbcac,
		0x4088095793f2a910, 0x40878981c59b2e44, 0x4087124e7cbd5d75, 0x4086d81838fb651c,
	},
	"delta/params": {
		0x4061637602d1386b, 0x4061d6b4d3c4d299, 0x406280eced08fa79, 0x40616c7d393bffb8,
		0x406203aef05534df, 0x40619d3a9407aa36, 0x4061639ec0cbbd0b, 0x40612efe84f25600,
	},
	"bundle/seed7": {
		0x4057a9ebe4cceabf, 0x405a736047ac25a2, 0x4057b4973b907513, 0x405de665cebaf677,
		0x405dc374b327e67e, 0x405d20e52b191754, 0x405ee38e4f339c06, 0x4061e062c0cdfe44,
		0x40571d6bd6b57fc4, 0x40590c59f5ce4e5a, 0x405dea9363056675, 0x40613d27dc69381c,
		0x406018eab1847bf8, 0x405d535c38873ac7, 0x405e74682ce15e54, 0x4053b9390e7cde6c,
		0x405d0a07796a2e73, 0x40605c02159d62fc, 0x405c062691eeba23, 0x405f0dcdb7893a8e,
		0x405be3e7ef8979cd, 0x406155bc90989005, 0x405b29b171c09647, 0x405a6ee58b1b2488,
		0x40600c142e39da1c, 0x405f7cb500d6023d, 0x405c351d97824954, 0x4063a44b836c57a0,
		0x405a800aa4132e6a, 0x405d407d4ac24427, 0x405bdd8867b66572, 0x405bc7f637057a2c,
		0x405a14b43a5f1ea6, 0x4058271d8929ccb9, 0x405dc6382deb2594, 0x405fe875ab470568,
		0x405ad5c114589f0b, 0x4057469464e394c3, 0x405f187d0f2a1de7, 0x40613c04ca55dae8,
		0x405c59ba762957af, 0x405863c449b93e0a, 0x4059023f3a1fa37c, 0x405c3e1c3289a1dc,
		0x405d61a85bcd87f6, 0x4058ef9a7e3d856b, 0x405bb9cf22d67038, 0x4060348f8ee4518e,
	},
	"bundle/seed2014": {
		0x405c6e86df4ffae9, 0x4059898fecd4a48e, 0x4058d5ed8827caf6, 0x4060aeb3bb7adb96,
		0x405d92934b0a1612, 0x405c90d5c8365eb1, 0x4060d6fec24bc05c, 0x405c31cebacc5d52,
		0x405e27d42d5e8459, 0x4061646109f0fd8e, 0x405e89818da41cb9, 0x40578d2b907d3c94,
		0x40598f58ed9cb837, 0x405eb4eb157bdb80, 0x405fb30bed2c8a0d, 0x4058cfca4aaec287,
		0x405cc91181a520c4, 0x405ee04a8f3a5a6e, 0x4061288a7fa7f6a4, 0x405f5415be2c99a2,
		0x4062559c3b18609d, 0x40601deeeda08c44, 0x405eeb51742d5705, 0x405a84f8bc32b88a,
		0x40613d03dc8d04ce, 0x405d2c02aadbfd5a, 0x405f7b6d8c2df875, 0x405bbbe73f339284,
		0x405a467c4751e4bc, 0x406010bc96c43a96, 0x405dc702bd2fe2d9, 0x40590cba087ee28c,
		0x405ec23108d1ecd2, 0x4062790324a20ff3, 0x405e695fb032ed41, 0x405fc730944ca4ab,
		0x405c1cbb66faafde, 0x405e008c229c882e, 0x40596248f0f1dcec, 0x40601c277951b5ab,
		0x4060458429bb16dd, 0x405acce9a2f4df59, 0x406069ba7b763940, 0x405dad61c5e72ee1,
		0x4061a9ec65ba8dca, 0x405d2f3d47c71d99, 0x4057bfdccaa47564, 0x4058bc3467a77cd3,
	},
}

type goldenCase struct {
	name string
	run  func(ctx context.Context, db *mcdb.DB, workers int) ([]float64, error)
}

func goldenExec(q mcdb.AggQuery) func(context.Context, *mcdb.DB, int) ([]float64, error) {
	return func(ctx context.Context, db *mcdb.DB, workers int) ([]float64, error) {
		q.Table, q.Col = "sbp_data", "sbp"
		return db.NewSession().Exec(ctx, q, mcdb.ExecOptions{
			Strategy: mcdb.StrategyBundle, Iterations: goldenIters, Seed: goldenSeed, Workers: workers})
	}
}

func goldenDelta(q mcdb.AggQuery, d mcdb.Delta) func(context.Context, *mcdb.DB, int) ([]float64, error) {
	return func(ctx context.Context, db *mcdb.DB, workers int) ([]float64, error) {
		q.Table, q.Col, d.Table = "sbp_data", "sbp", "sbp_data"
		return db.NewSession().ExecDelta(ctx, q, mcdb.ExecOptions{
			Iterations: goldenIters, Seed: goldenSeed, Workers: workers}, d)
	}
}

func goldenBundle(seed uint64) func(context.Context, *mcdb.DB, int) ([]float64, error) {
	return func(ctx context.Context, db *mcdb.DB, workers int) ([]float64, error) {
		bundles, err := db.InstantiateBundledCtx(ctx, goldenIters, seed, workers)
		if err != nil {
			return nil, err
		}
		var out []float64
		for _, unc := range bundles["sbp_data"].Unc {
			out = append(out, unc[0]...)
		}
		return out, nil
	}
}

func goldenCases() []goldenCase {
	female := func(det engine.Row) bool { return det[1].AsString() == "F" }
	high := func(_ engine.Row, unc []float64) bool { return unc[0] > 125 }
	even := func(det engine.Row) bool { return det[0].AsInt()%2 == 0 }
	return []goldenCase{
		{"exec/count", goldenExec(mcdb.AggQuery{Fn: engine.AggCount})},
		{"exec/sum", goldenExec(mcdb.AggQuery{Fn: engine.AggSum})},
		{"exec/avg", goldenExec(mcdb.AggQuery{Fn: engine.AggAvg})},
		{"exec/avg_det", goldenExec(mcdb.AggQuery{Fn: engine.AggAvg, WhereDet: female})},
		{"exec/count_unc", goldenExec(mcdb.AggQuery{Fn: engine.AggCount, WhereUnc: high})},
		{"exec/sum_det_unc", goldenExec(mcdb.AggQuery{Fn: engine.AggSum, WhereDet: female, WhereUnc: high})},
		{"exec/avg_det_unc", goldenExec(mcdb.AggQuery{Fn: engine.AggAvg, WhereDet: female, WhereUnc: high})},
		{"delta/mapunc", goldenDelta(mcdb.AggQuery{Fn: engine.AggAvg},
			mcdb.Delta{Where: even, MapUnc: func(_ engine.Row, unc []float64) { unc[0] = unc[0]*1.1 + 2 }})},
		{"delta/vg", goldenDelta(mcdb.AggQuery{Fn: engine.AggSum},
			mcdb.Delta{Where: even, VG: mcdb.DistVG(rng.NormalDist{Mu: 130, Sigma: 5})})},
		{"delta/params", goldenDelta(mcdb.AggQuery{Fn: engine.AggAvg, WhereDet: female},
			mcdb.Delta{Params: func(*engine.Database, engine.Row) (engine.Row, error) {
				return engine.Row{engine.Float(140), engine.Float(10)}, nil
			}})},
		{"bundle/seed7", goldenBundle(7)},
		{"bundle/seed2014", goldenBundle(2014)},
	}
}

// goldenLiteral formats bits as the Go literal goldenBits holds, so a
// deliberate change to the realized values can be reviewed as a diff.
func goldenLiteral(name string, bits []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t%q: {", name)
	for i, v := range bits {
		if i%4 == 0 {
			b.WriteString("\n\t\t")
		} else {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%#016x,", v)
	}
	b.WriteString("\n\t},")
	return b.String()
}

// TestBundleRealizationGolden runs every case at workers 1, 2 and 8,
// both through the fixture's batch VG form and through the legacy VG
// adapter, and requires the recorded bits exactly.
func TestBundleRealizationGolden(t *testing.T) {
	ctx := context.Background()
	batchDB, err := experiments.SBPDatabase(goldenPatients)
	if err != nil {
		t.Fatal(err)
	}
	if spec, err := batchDB.Spec("sbp_data"); err != nil || spec.Batch == nil {
		t.Fatalf("SBP fixture has no batch VG form (err %v)", err)
	}
	legacyDB, err := experiments.SBPDatabase(goldenPatients)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := legacyDB.Spec("sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	spec.Batch = nil
	for _, tc := range goldenCases() {
		want, ok := goldenBits[tc.name]
		for _, run := range []struct {
			form    string
			db      *mcdb.DB
			workers int
		}{
			{"batch", batchDB, 1}, {"batch", batchDB, 2}, {"batch", batchDB, 8},
			{"legacy", legacyDB, 1}, {"legacy", legacyDB, 2}, {"legacy", legacyDB, 8},
		} {
			form, workers := run.form, run.workers
			got, err := tc.run(ctx, run.db, workers)
			if err != nil {
				t.Fatalf("%s %s workers=%d: %v", tc.name, form, workers, err)
			}
			bits := make([]uint64, len(got))
			for i, v := range got {
				bits[i] = math.Float64bits(v)
			}
			if !ok {
				t.Errorf("%s: no golden value; recorded:\n%s", tc.name, goldenLiteral(tc.name, bits))
				break
			}
			if len(bits) != len(want) {
				t.Fatalf("%s %s workers=%d: %d values, golden has %d", tc.name, form, workers, len(bits), len(want))
			}
			for i := range bits {
				if bits[i] != want[i] {
					t.Errorf("%s %s workers=%d: value %d = %#016x (%v), golden %#016x (%v); got:\n%s",
						tc.name, form, workers, i, bits[i], got[i], want[i], math.Float64frombits(want[i]),
						goldenLiteral(tc.name, bits))
					break
				}
			}
		}
	}
}
