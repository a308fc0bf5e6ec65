package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
)

// DB is one database instance: arena, buffer pool, catalog.
type DB struct {
	Arena *mem.Arena
	Pool  *storage.BufferPool
	Codes *mem.CodeMap

	cfg    Config // resolved geometry, which an Image carries to its forks
	mu     sync.RWMutex
	tables map[string]*Table
}

// Config sizes a database instance. The page table goes first in the
// arena and the frames follow it, so MaxPages decides the simulated
// address of frame 0 and Frames how far the frames reach; what is left of
// ArenaBytes behind them is for page-table growth and for whatever the
// owner allocates there (TPC-C's lock table and log ring).
type Config struct {
	ArenaBytes int // the arena the database lives in (default 256 MB)
	Frames     int // buffer-pool frames (default: 7/8 of the arena, in pages)
	MaxPages   int // page-table capacity (default: 2x frames)
}

func (c Config) withDefaults() Config {
	if c.ArenaBytes == 0 {
		c.ArenaBytes = 256 << 20
	}
	if c.Frames == 0 {
		// Leave 1/8 of the arena for metadata (page table, lock table,
		// log ring) and slack.
		c.Frames = c.ArenaBytes / storage.PageSize * 7 / 8
	}
	if c.MaxPages == 0 {
		c.MaxPages = 2 * c.Frames
	}
	return c
}

// Holding returns c's layout backed for a database of at most pages
// pages: the page-table capacity c resolves to — hence the simulated
// address of the page table and of every frame — with pages frames only,
// in an arena that ends where they do. A database that stays within them
// is the same database either way, for the cost of the memory it uses
// rather than the memory it could address; one that outgrows them evicts
// where it would have taken a new frame, and cannot grow its page table.
// It is not for a database whose owner allocates behind the frames: that
// region would move.
func (c Config) Holding(pages int) Config {
	c = c.withDefaults()
	if pages < c.Frames {
		c.Frames = pages
		c.ArenaBytes = storage.PoolBytes(pages, c.MaxPages)
	}
	return c
}

// NewDB creates an empty database in an arena of its own.
func NewDB(cfg Config) *DB {
	cfg = cfg.withDefaults()
	return NewDBOn(cfg, mem.NewArena(mem.HeapBase, cfg.ArenaBytes))
}

// NewDBOn creates an empty database in an arena the caller provides —
// nothing allocated, every byte zero, as NewArena or DB.Release leave one —
// whose size stands in for cfg.ArenaBytes.
func NewDBOn(cfg Config, arena *mem.Arena) *DB {
	cfg.ArenaBytes = arena.Size()
	cfg = cfg.withDefaults()
	codes := mem.NewCodeMap()
	// The "SQL layer": parser/planner/catalog code executed per statement.
	// Its large footprint is a defining property of OLTP instruction
	// streams (the paper's I-stall discussion).
	codes.Register("sql:frontend", 24<<10)
	pool := storage.NewBufferPool(arena, cfg.Frames, cfg.MaxPages, codes)
	return &DB{Arena: arena, Pool: pool, Codes: codes, cfg: cfg, tables: make(map[string]*Table)}
}

// Table is a named heap file with schema and secondary indexes.
type Table struct {
	Name    string
	Schema  Schema
	Offs    []int
	Heap    *storage.HeapFile
	indexes []*Index // in creation order, which is the order inserts maintain them in
	mu      sync.RWMutex
}

// Index is a B+tree over an integer key derived from each row.
type Index struct {
	Name  string
	Tree  *storage.BTree
	KeyOf func(row []byte) int64
}

// CreateTable registers a new table with the given physical layout.
func (db *DB) CreateTable(name string, schema Schema, layout storage.Layout) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("engine: table %q exists", name)
	}
	t := &Table{
		Name:   name,
		Schema: schema,
		Offs:   schema.Offsets(),
		Heap:   storage.NewHeapFile(db.Pool, layout, schema.Widths(), db.Codes, name),
	}
	db.tables[name] = t
	return t, nil
}

// Table looks up a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	return t, nil
}

// MustTable is Table for static names known to exist.
func (db *DB) MustTable(name string) *Table {
	t, err := db.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// CreateIndex adds a secondary index computing its int64 key with keyOf.
func (db *DB) CreateIndex(t *Table, name string, keyOf func(row []byte) int64) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.index(name) != nil {
		return nil, fmt.Errorf("engine: table %q already has an index %q", t.Name, name)
	}
	tree, err := storage.NewBTree(db.Pool, db.Codes, name)
	if err != nil {
		return nil, err
	}
	idx := &Index{Name: name, Tree: tree, KeyOf: keyOf}
	t.indexes = append(t.indexes, idx)
	return idx, nil
}

// index returns the named index or nil (mu held).
func (t *Table) index(name string) *Index {
	for _, idx := range t.indexes {
		if idx.Name == name {
			return idx
		}
	}
	return nil
}

// Index returns the named index.
func (t *Table) Index(name string) (*Index, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := t.index(name)
	if idx == nil {
		return nil, fmt.Errorf("engine: table %q has no index %q", t.Name, name)
	}
	return idx, nil
}

// MustIndex is Index for static names.
func (t *Table) MustIndex(name string) *Index {
	idx, err := t.Index(name)
	if err != nil {
		panic(err)
	}
	return idx
}

// Insert encodes vals, appends the row, and maintains all indexes. It
// returns the new row's RID.
func (t *Table) Insert(rec *trace.Recorder, vals []Value) (storage.RID, error) {
	row := make([]byte, t.Schema.RowWidth())
	if err := t.Schema.EncodeRow(row, vals); err != nil {
		return storage.RID{}, err
	}
	return t.InsertRow(rec, row)
}

// InsertRow appends a pre-encoded row and maintains indexes.
func (t *Table) InsertRow(rec *trace.Recorder, row []byte) (storage.RID, error) {
	var rid storage.RID
	var err error
	if t.Heap.Layout() == storage.NSM {
		rid, err = t.Heap.Insert(rec, row)
	} else {
		fields := make([][]byte, len(t.Schema))
		off := 0
		for i, c := range t.Schema {
			fields[i] = row[off : off+c.Width]
			off += c.Width
		}
		rid, err = t.Heap.InsertFields(rec, fields)
	}
	if err != nil {
		return rid, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, idx := range t.indexes {
		if err := idx.Tree.Insert(rec, idx.KeyOf(row), rid.Pack()); err != nil {
			return rid, err
		}
	}
	return rid, nil
}

// Loader is a table's load path: Insert with a nil recorder, without the
// per-row costs that have nothing to do with the row — it appends through
// the heap file's storage.Appender and encodes into one reused buffer. The
// rows land on the pages and slots, and every index receives the
// Tree.Insert calls in the order, that Insert(nil, vals) would give them.
// Transactions keep Insert and InsertRow: a Loader takes no recorder.
//
// A Loader holds its heap file closed to everyone else until Close (see
// storage.Appender) and maintains the indexes the table had when it was
// opened. Loaders of different tables may be open at once.
type Loader struct {
	t       *Table
	app     *storage.Appender
	indexes []*Index
	row     []byte
	fields  [][]byte // the row's columns, for a PAX heap
}

// Loader opens the table for a load. The caller must Close it.
func (t *Table) Loader() *Loader {
	l := &Loader{t: t, app: t.Heap.Appender(), row: make([]byte, t.Schema.RowWidth())}
	t.mu.RLock()
	l.indexes = t.indexes
	t.mu.RUnlock()
	if t.Heap.Layout() == storage.PAXLayout {
		l.fields = make([][]byte, len(t.Schema))
		for i, c := range t.Schema {
			l.fields[i] = l.row[t.Offs[i] : t.Offs[i]+c.Width]
		}
	}
	return l
}

// Insert encodes vals, appends the row and maintains all indexes.
func (l *Loader) Insert(vals ...Value) (storage.RID, error) {
	if err := l.t.Schema.EncodeRow(l.row, vals); err != nil {
		return storage.RID{}, err
	}
	var rid storage.RID
	var err error
	if l.fields == nil {
		rid, err = l.app.Append(l.row)
	} else {
		rid, err = l.app.AppendFields(l.fields)
	}
	if err != nil {
		return rid, err
	}
	for _, idx := range l.indexes {
		if err := idx.Tree.Insert(nil, idx.KeyOf(l.row), rid.Pack()); err != nil {
			return rid, err
		}
	}
	return rid, nil
}

// Close ends the load and releases the heap file; a loaded pool has no
// page pinned.
func (l *Loader) Close() { l.app.Close() }

// Version returns the table's write-version counter (see
// storage.HeapFile.Version): the result-reuse cache keys entries by it so
// a write — including one inside a transaction that later commits — can
// never be masked by a stale cached aggregate.
func (t *Table) Version() uint64 { return t.Heap.Version() }

// Fetch reads the encoded row at rid (NSM tables).
func (t *Table) Fetch(rec *trace.Recorder, rid storage.RID) ([]byte, error) {
	return t.Heap.FetchNSM(rec, rid)
}

// Update overwrites the row at rid and is only valid when no indexed key
// changed (the OLTP workloads update balances and quantities, not keys).
func (t *Table) Update(rec *trace.Recorder, rid storage.RID, row []byte) error {
	return t.Heap.UpdateNSM(rec, rid, row)
}

// Ctx carries per-worker execution state through operators.
type Ctx struct {
	Rec  *trace.Recorder
	DB   *DB
	Work *mem.Arena // per-worker workspace for hash tables and results

	// JoinMode is the hash-join strategy operators fall back to when
	// their plan does not pin one (see JoinMode); the zero value is
	// JoinAuto.
	JoinMode JoinMode
	// Join receives join-build observations (chain lengths, partition
	// fanout); the zero value discards them.
	Join obs.JoinMetrics

	leases atomic.Int64
}

// Leases returns how many page leases taken through this context are
// still out (a borrowed block holds one until its Reset or final ring
// Release, on whichever goroutine that happens): zero once every operator
// that ran under the context has closed. Unlike BufferPool.Leases it is
// not disturbed by other contexts' runs on the same database.
func (c *Ctx) Leases() int { return int(c.leases.Load()) }

// ctxLease is a page lease counted against the context that took it.
type ctxLease struct {
	*storage.PageLease
	ctx *Ctx
}

func (c *Ctx) lease(pid storage.PageID) (ctxLease, error) {
	l, err := c.DB.Pool.Lease(c.Rec, pid)
	if err != nil {
		return ctxLease{}, err
	}
	c.leases.Add(1)
	return ctxLease{l, c}, nil
}

// Release ends the lease. It is called once per lease: by aliasPage when
// it rejects the page, otherwise by the block that borrowed it.
func (l ctxLease) Release() {
	l.PageLease.Release()
	l.ctx.leases.Add(-1)
}

// NewCtx builds an execution context with a private workspace of workBytes
// at the worker's slot in the workspace region.
func (db *DB) NewCtx(rec *trace.Recorder, worker, workBytes int) *Ctx {
	return db.NewCtxOn(rec, mem.NewArena(WorkSlotBase(worker, workBytes), workBytes))
}

// NewCtxOn builds an execution context over a workspace the caller owns
// (and may reuse once nothing of the context's run is live).
func (db *DB) NewCtxOn(rec *trace.Recorder, work *mem.Arena) *Ctx {
	return &Ctx{Rec: rec, DB: db, Work: work}
}

// WorkSlotBase is the simulated address of worker's workspace when every
// worker has workBytes: consecutive slots lie workBytes plus a 64 KB gap
// apart in the workspace region.
func WorkSlotBase(worker, workBytes int) mem.Addr {
	return mem.WorkBase + mem.Addr(worker)*mem.Addr(workBytes+(64<<10))
}
