package engine

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/storage"
)

// imageSchema creates the fork tests' schema in db: table "t" with the
// named indexes on its first column.
func imageSchema(t *testing.T, db *DB, table string, indexes ...string) *Table {
	t.Helper()
	tbl, err := db.CreateTable(table, Schema{Int("k"), Char("pad", 120)}, storage.NSM)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range indexes {
		if _, err := db.CreateIndex(tbl, name, func(row []byte) int64 { return RowInt(row, 0) }); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func insertKeys(t *testing.T, tbl *Table, from, to int) {
	t.Helper()
	for k := from; k < to; k++ {
		if _, err := tbl.Insert(nil, []Value{IV(int64(k)), SV("row")}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImageRestoreAndRelease: a database with the image's schema created
// again on a released arena becomes the loaded database — same arena
// bytes, rows reachable through the restored index — and a database with
// another schema is refused.
func TestImageRestoreAndRelease(t *testing.T) {
	cfg := Config{ArenaBytes: 8 << 20}
	src := NewDB(cfg)
	insertKeys(t, imageSchema(t, src, "t", "t_pk"), 0, 500)
	img, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := src.Arena.Raw()
	want := bytes.Clone(raw)

	arena := src.Release()
	if buf, _ := arena.Raw(); len(bytes.TrimLeft(buf, "\x00")) != 0 || arena.Used() != 0 {
		t.Fatal("a released arena does not read as a fresh one")
	}
	fork := NewDBOn(img.Config(), arena)
	tbl := imageSchema(t, fork, "t", "t_pk")
	if err := fork.Restore(img); err != nil {
		t.Fatal(err)
	}
	if got, _ := fork.Arena.Raw(); !bytes.Equal(got, want) {
		t.Error("the restored database's arena differs from the source's")
	}
	v, ok, err := tbl.MustIndex("t_pk").Tree.Get(nil, 321)
	if err != nil || !ok {
		t.Fatalf("key 321 not in the restored index (%v)", err)
	}
	if row, err := tbl.Fetch(nil, storage.UnpackRID(v)); err != nil || RowInt(row, 0) != 321 {
		t.Errorf("restored row for key 321: %v (%v)", row, err)
	}
	if tbl.Heap.Rows() != 500 {
		t.Errorf("restored table has %d rows, want 500", tbl.Heap.Rows())
	}

	for name, schema := range map[string]func(db *DB){
		"another table name": func(db *DB) { imageSchema(t, db, "u", "t_pk") },
		"a missing index":    func(db *DB) { imageSchema(t, db, "t") },
		"another index name": func(db *DB) { imageSchema(t, db, "t", "t_sk") },
		"an extra table":     func(db *DB) { imageSchema(t, db, "t", "t_pk"); imageSchema(t, db, "u") },
	} {
		db := NewDBOn(img.Config(), mem.NewArena(mem.HeapBase, cfg.ArenaBytes))
		schema(db)
		if err := db.Restore(img); err == nil {
			t.Errorf("restore into a database with %s succeeded", name)
		}
	}
}
