package engine

import "testing"

// fuzzFixture is the two-table database FuzzSQL runs against: a person
// table with every column type and an orders table joinable on pid.
func fuzzFixture() *Database {
	db := NewDatabase()
	person := MustNewTable("person", Schema{
		{Name: "pid", Type: TypeInt},
		{Name: "name", Type: TypeString},
		{Name: "age", Type: TypeInt},
		{Name: "income", Type: TypeFloat},
		{Name: "adult", Type: TypeBool},
	})
	person.MustInsert(Int(1), Str("ann"), Int(3), Float(0), Bool(false))
	person.MustInsert(Int(2), Str("bob"), Int(34), Float(52000), Bool(true))
	person.MustInsert(Int(3), Str("cal"), Int(4), Float(0), Bool(false))
	person.MustInsert(Int(4), Str("dee"), Int(61), Float(31000), Bool(true))
	db.Put(person)
	orders := MustNewTable("orders", Schema{
		{Name: "pid", Type: TypeInt},
		{Name: "amount", Type: TypeFloat},
	})
	orders.MustInsert(Int(2), Float(10.5))
	orders.MustInsert(Int(2), Float(20))
	orders.MustInsert(Int(4), Float(5.25))
	orders.MustInsert(Int(99), Float(1))
	db.Put(orders)
	return db
}

// FuzzSQL feeds arbitrary text to the SQL front end and executor: every
// input must come back as a table or an error, never a panic. The seed
// corpus in testdata/fuzz/FuzzSQL covers each statement form and
// clause, so plain `go test` replays it.
func FuzzSQL(f *testing.F) {
	f.Fuzz(func(t *testing.T, sql string) {
		db := fuzzFixture()
		if res, err := db.Query(sql); err == nil && res == nil {
			t.Fatalf("Query(%q) returned neither a table nor an error", sql)
		}
		p, err := Prepare(sql)
		if err != nil {
			return
		}
		if res, err := p.Exec(fuzzFixture()); err == nil && res == nil {
			t.Fatalf("Prepare(%q).Exec returned neither a table nor an error", sql)
		}
	})
}
