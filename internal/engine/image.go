package engine

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/storage"
)

// Image is a loaded database at rest: the buffer pool's pages and
// bookkeeping, and for every table its heap file's page list and its
// indexes' roots. It holds no schema: key functions are Go closures, so a
// fork is made by creating the same tables and indexes again in a database
// built with NewDBOn(img.Config(), arena) and then calling Restore, which
// replaces the empty structures' state with the loaded one. An Image is
// immutable and safe to restore from concurrently.
type Image struct {
	cfg       Config
	pool      *storage.PoolImage
	tables    map[string]tableImage
	codeBytes int
}

type tableImage struct {
	heap    storage.HeapImage
	indexes map[string]storage.BTreeImage
}

// Snapshot captures the database. Nothing may be running against it.
func (db *DB) Snapshot() (*Image, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pool, err := db.Pool.Snapshot()
	if err != nil {
		return nil, err
	}
	img := &Image{
		cfg: db.cfg, pool: pool,
		tables:    make(map[string]tableImage, len(db.tables)),
		codeBytes: db.Codes.TotalFootprint(),
	}
	for name, t := range db.tables {
		t.mu.RLock()
		ti := tableImage{heap: t.Heap.Snapshot(), indexes: make(map[string]storage.BTreeImage, len(t.indexes))}
		for _, idx := range t.indexes {
			ti.indexes[idx.Name] = idx.Tree.Snapshot()
		}
		t.mu.RUnlock()
		img.tables[name] = ti
	}
	return img, nil
}

// Config returns the geometry of the database the image was taken from.
func (img *Image) Config() Config { return img.cfg }

// Restore puts db — same geometry, same tables and indexes created in the
// same order, nothing inserted — in the image's state. The code layout is
// checked rather than copied: creating the schema lays out every segment
// loading uses, so a difference means the schemas differ.
func (db *DB) Restore(img *Image) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if len(db.tables) != len(img.tables) {
		return fmt.Errorf("engine: restore of %d tables into %d", len(img.tables), len(db.tables))
	}
	for name, t := range db.tables {
		ti, ok := img.tables[name]
		if !ok {
			return fmt.Errorf("engine: restore: image has no table %q", name)
		}
		if err := t.matches(ti); err != nil {
			return err
		}
	}
	if got := db.Codes.TotalFootprint(); got != img.codeBytes {
		return fmt.Errorf("engine: restore: code layout is %d bytes, the image's %d", got, img.codeBytes)
	}
	if err := db.Pool.Restore(img.pool); err != nil {
		return err
	}
	for name, t := range db.tables {
		ti := img.tables[name]
		t.mu.RLock()
		t.Heap.Restore(ti.heap)
		for _, idx := range t.indexes {
			idx.Tree.Restore(ti.indexes[idx.Name])
		}
		t.mu.RUnlock()
	}
	return nil
}

// matches reports whether the image has exactly the table's indexes.
func (t *Table) matches(ti tableImage) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(ti.indexes) != len(t.indexes) {
		return fmt.Errorf("engine: restore: table %q has %d indexes, the image's %d", t.Name, len(t.indexes), len(ti.indexes))
	}
	for _, idx := range t.indexes {
		if _, ok := ti.indexes[idx.Name]; !ok {
			return fmt.Errorf("engine: restore: image has no index %q on %q", idx.Name, t.Name)
		}
	}
	return nil
}

// Release zeroes every page the database dirtied and gives up its arena,
// which reads as a fresh one again and may back another NewDBOn. The
// database must not be used afterwards, and nothing may still be running
// against it.
func (db *DB) Release() *mem.Arena {
	db.Pool.Scrub()
	db.Arena.MarkClean()
	return db.Arena
}
