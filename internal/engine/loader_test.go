package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

// loadCase is one generated load: a schema whose first column is the
// integer the indexes key on, a layout, how many indexes and rows, and
// where the load is interrupted so that a second Loader resumes it.
type loadCase struct {
	schema  Schema
	layout  storage.Layout
	indexes int
	rows    int
	split   int
	seed    int64
}

func newLoadCase(seed int64) loadCase {
	rng := rand.New(rand.NewSource(seed))
	c := loadCase{schema: Schema{Int("k")}, indexes: rng.Intn(3), seed: seed}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		name := fmt.Sprintf("c%d", i)
		switch rng.Intn(3) {
		case 0:
			c.schema = append(c.schema, Int(name))
		case 1:
			c.schema = append(c.schema, Float(name))
		default:
			c.schema = append(c.schema, Char(name, 1+rng.Intn(40)))
		}
	}
	if rng.Intn(2) == 1 {
		c.layout = storage.PAXLayout
	}
	// Mostly loads of many pages, but an empty table, a single row and a
	// single page are cases too.
	c.rows = rng.Intn([]int{1, 2, 300, 300, 20001, 20001, 20001, 20001}[rng.Intn(8)])
	c.split = rng.Intn(c.rows + 1)
	return c
}

// create makes the case's table and indexes in a new database. The second
// index has duplicate keys.
func (c loadCase) create(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := NewDB(Config{ArenaBytes: 24 << 20})
	tbl, err := db.CreateTable("t", c.schema, c.layout)
	if err != nil {
		t.Fatal(err)
	}
	keys := []func(row []byte) int64{
		func(row []byte) int64 { return RowInt(row, 0) },
		func(row []byte) int64 { return RowInt(row, 0) % 97 },
	}
	for i := 0; i < c.indexes; i++ {
		if _, err := db.CreateIndex(tbl, fmt.Sprintf("t_%d", i), keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

// values draws the case's rows, the same sequence on every call.
func (c loadCase) values() func() []Value {
	rng := rand.New(rand.NewSource(c.seed + 1))
	vals := make([]Value, len(c.schema))
	return func() []Value {
		for i, col := range c.schema {
			switch col.Type {
			case TInt:
				vals[i] = IV(rng.Int63n(1 << 40))
			case TFloat:
				vals[i] = FV(rng.NormFloat64())
			default:
				s := make([]byte, rng.Intn(col.Width+1))
				for j := range s {
					s[j] = byte('a' + rng.Intn(26))
				}
				vals[i] = SV(string(s))
			}
		}
		return vals
	}
}

// TestLoaderEqualsRowInserts: over generated schemas, layouts, index sets
// and row counts, a table loaded through Loaders is the table
// Insert(nil, …) builds — the arena byte for byte (heap pages and B+tree
// nodes alike), the RIDs, the heap file's page list and row count, every
// tree's root and height — with nothing pinned or leased afterwards; and
// while a Loader is open the database refuses a Snapshot.
func TestLoaderEqualsRowInserts(t *testing.T) {
	check := func(seed int64) bool {
		c := newLoadCase(seed)
		ref, refTbl := c.create(t)
		next := c.values()
		refRIDs := make([]storage.RID, c.rows)
		for i := range refRIDs {
			var err error
			if refRIDs[i], err = refTbl.Insert(nil, next()); err != nil {
				t.Fatal(err)
			}
		}

		db, tbl := c.create(t)
		next = c.values()
		ld := tbl.Loader()
		for i := 0; i < c.rows; i++ {
			if i == c.split {
				ld.Close()
				ld = tbl.Loader()
			}
			rid, err := ld.Insert(next()...)
			if err != nil {
				t.Fatal(err)
			}
			if rid != refRIDs[i] {
				t.Errorf("seed %d: row %d loaded at %v, inserted at %v", seed, i, rid, refRIDs[i])
				return false
			}
		}
		if _, err := db.Snapshot(); err == nil {
			t.Errorf("seed %d: snapshot with a loader open succeeded", seed)
		}
		ld.Close()

		ok := true
		fail := func(format string, args ...any) {
			t.Errorf("seed %d (%v, %d columns, %d indexes, %d rows): %s",
				seed, c.layout, len(c.schema), c.indexes, c.rows, fmt.Sprintf(format, args...))
			ok = false
		}
		a, _ := ref.Arena.Raw()
		b, _ := db.Arena.Raw()
		if !bytes.Equal(a, b) || ref.Arena.Used() != db.Arena.Used() {
			fail("arenas differ")
		}
		if ref.Pool.PageCount() != db.Pool.PageCount() || ref.Pool.Resident() != db.Pool.Resident() {
			fail("%d pages, %d resident; inserted %d, %d", db.Pool.PageCount(), db.Pool.Resident(), ref.Pool.PageCount(), ref.Pool.Resident())
		}
		if tbl.Heap.Rows() != c.rows || tbl.Heap.NumPages() != refTbl.Heap.NumPages() {
			fail("%d rows in %d pages; inserted %d in %d", tbl.Heap.Rows(), tbl.Heap.NumPages(), c.rows, refTbl.Heap.NumPages())
		}
		for i := 0; i < tbl.Heap.NumPages() && ok; i++ {
			if tbl.Heap.PageAt(i) != refTbl.Heap.PageAt(i) {
				fail("heap page %d is page %d; inserted, %d", i, tbl.Heap.PageAt(i), refTbl.Heap.PageAt(i))
			}
		}
		for i := 0; i < c.indexes; i++ {
			name := fmt.Sprintf("t_%d", i)
			tree := tbl.MustIndex(name).Tree
			if tree.Snapshot() != refTbl.MustIndex(name).Tree.Snapshot() {
				fail("index %s: root and height %v; inserted, %v", name, tree.Snapshot(), refTbl.MustIndex(name).Tree.Snapshot())
			}
			if n, err := tree.Validate(); err != nil || n != c.rows {
				fail("index %s holds %d entries (%v)", name, n, err)
			}
		}
		if _, err := db.Snapshot(); err != nil {
			fail("after Close: %v", err)
		}
		if n := db.Pool.Leases(); n != 0 {
			fail("%d leases out", n)
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Error(err)
	}
}

// TestIndexesMaintainedInCreationOrder: a table's indexes receive each
// row in the order they were created, so two builds of one schema
// allocate the same pages — which ranging over a map of them did not
// guarantee. The name of an existing index is refused.
func TestIndexesMaintainedInCreationOrder(t *testing.T) {
	c := loadCase{schema: Schema{Int("k"), Char("pad", 30)}, indexes: 2, rows: 3000, seed: 5}
	var want []byte
	for run := 0; run < 4; run++ {
		db, tbl := c.create(t)
		next := c.values()
		for i := 0; i < c.rows; i++ {
			if _, err := tbl.Insert(nil, next()); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := db.Arena.Raw()
		if run == 0 {
			want = got
			if _, err := db.CreateIndex(tbl, "t_1", func([]byte) int64 { return 0 }); err == nil {
				t.Error("a second index named t_1 was created")
			}
		} else if !bytes.Equal(got, want) {
			t.Fatalf("build %d of the same rows left another arena", run)
		}
	}
}
