package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/mem"
	"repro/internal/trace"
)

// BTree is a B+tree over buffer-pool pages mapping int64 keys to uint64
// payloads (packed RIDs). Duplicate keys are allowed; entries with equal
// keys are adjacent in leaf order.
//
// Descents emit dependent loads — each node's search depends on the
// parent's child pointer — which is exactly the pointer-chasing pattern
// that denies fat-camp cores their memory-level parallelism on OLTP.
type BTree struct {
	mu     sync.RWMutex
	pool   *BufferPool
	root   PageID
	height int
	// writes counts Inserts and Deletes; a Cursor positioned under another
	// count finds its place again before it reads (see Cursor).
	writes uint64

	codeSearch mem.CodeSeg
	codeInsert mem.CodeSeg
}

// Node page layout (fixed caps chosen to fit 8 KB pages):
//
//	[0]    leaf flag
//	[2:4]  entry count n
//	[4:8]  leaf: next-leaf page id; inner: unused
//	keys:  8 bytes each at keyOff
//	leaf:  values, 8 bytes each at leafValOff
//	inner: children, 4 bytes each at childOff (n+1 children)
const (
	btKeyOff     = 8
	btLeafCap    = 500
	btInnerCap   = 500
	btLeafValOff = btKeyOff + btLeafCap*8
	btChildOff   = btKeyOff + btInnerCap*8
)

// NewBTree creates an empty tree.
func NewBTree(pool *BufferPool, codes *mem.CodeMap, name string) (*BTree, error) {
	t := &BTree{
		pool:       pool,
		codeSearch: codes.Register("btree:search:"+name, 3072),
		codeInsert: codes.Register("btree:insert:"+name, 4096),
	}
	ref, err := pool.NewPage(nil)
	if err != nil {
		return nil, err
	}
	defer ref.Release()
	initLeaf(ref.Data)
	t.root = ref.ID
	t.height = 1
	return t, nil
}

func initLeaf(d []byte) {
	d[0] = 1
	binary.LittleEndian.PutUint16(d[2:4], 0)
	binary.LittleEndian.PutUint32(d[4:8], 0)
}

func initInner(d []byte) {
	d[0] = 0
	binary.LittleEndian.PutUint16(d[2:4], 0)
}

func nodeIsLeaf(d []byte) bool { return d[0] == 1 }
func nodeN(d []byte) int       { return int(binary.LittleEndian.Uint16(d[2:4])) }
func setNodeN(d []byte, n int) { binary.LittleEndian.PutUint16(d[2:4], uint16(n)) }

func nodeKey(d []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(d[btKeyOff+i*8:]))
}
func setNodeKey(d []byte, i int, k int64) {
	binary.LittleEndian.PutUint64(d[btKeyOff+i*8:], uint64(k))
}
func leafVal(d []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(d[btLeafValOff+i*8:])
}
func setLeafVal(d []byte, i int, v uint64) {
	binary.LittleEndian.PutUint64(d[btLeafValOff+i*8:], v)
}
func leafNext(d []byte) PageID { return PageID(binary.LittleEndian.Uint32(d[4:8])) }
func setLeafNext(d []byte, p PageID) {
	binary.LittleEndian.PutUint32(d[4:8], uint32(p))
}
func innerChild(d []byte, i int) PageID {
	return PageID(binary.LittleEndian.Uint32(d[btChildOff+i*4:]))
}
func setInnerChild(d []byte, i int, p PageID) {
	binary.LittleEndian.PutUint32(d[btChildOff+i*4:], uint32(p))
}

// Height returns the tree height in levels.
func (t *BTree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// searchNode finds the first index i with key(i) >= k, emitting the binary
// search's probe loads (dependent: each probe's location depends on the
// previous comparison).
func searchNode(rec *trace.Recorder, d []byte, addr mem.Addr, k int64) int {
	lo, hi := 0, nodeN(d)
	for lo < hi {
		mid := (lo + hi) / 2
		rec.Load(addr+mem.Addr(btKeyOff+mid*8), true)
		if nodeKey(d, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// descend walks from the root to the leaf that would hold k, returning the
// pinned leaf. Caller releases.
func (t *BTree) descend(rec *trace.Recorder, k int64) (*PageRef, error) {
	pid := t.root
	for {
		ref, err := t.pool.Get(rec, pid)
		if err != nil {
			return nil, err
		}
		rec.Exec(t.codeSearch, 90)
		if nodeIsLeaf(ref.Data) {
			return ref, nil
		}
		i := searchNode(rec, ref.Data, ref.Addr, k)
		// On equal keys the child right of the separator holds them.
		if i < nodeN(ref.Data) && nodeKey(ref.Data, i) == k {
			i++
		}
		rec.Load(ref.Addr+mem.Addr(btChildOff+i*4), true)
		pid = innerChild(ref.Data, i)
		ref.Release()
	}
}

// Get returns the first payload stored under k.
func (t *BTree) Get(rec *trace.Recorder, k int64) (uint64, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf, err := t.descend(rec, k)
	if err != nil {
		return 0, false, err
	}
	defer leaf.Release()
	i := searchNode(rec, leaf.Data, leaf.Addr, k)
	if i < nodeN(leaf.Data) && nodeKey(leaf.Data, i) == k {
		rec.Load(leaf.Addr+mem.Addr(btLeafValOff+i*8), true)
		return leafVal(leaf.Data, i), true, nil
	}
	return 0, false, nil
}

// Insert adds (k, v). Duplicates are permitted.
func (t *BTree) Insert(rec *trace.Recorder, k int64, v uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writes++
	rec.Exec(t.codeInsert, 120)
	sep, right, grew, err := t.insertAt(rec, t.root, k, v)
	if err != nil {
		return err
	}
	if !grew {
		return nil
	}
	// Root split: new root with two children.
	ref, err := t.pool.NewPage(rec)
	if err != nil {
		return err
	}
	defer ref.Release()
	initInner(ref.Data)
	setNodeN(ref.Data, 1)
	setNodeKey(ref.Data, 0, sep)
	setInnerChild(ref.Data, 0, t.root)
	setInnerChild(ref.Data, 1, right)
	rec.StoreRange(ref.Addr, 32)
	t.root = ref.ID
	t.height++
	return nil
}

// insertAt inserts into the subtree rooted at pid. When the child splits
// it returns the separator key and new right sibling.
func (t *BTree) insertAt(rec *trace.Recorder, pid PageID, k int64, v uint64) (sep int64, right PageID, grew bool, err error) {
	ref, err := t.pool.Get(rec, pid)
	if err != nil {
		return 0, 0, false, err
	}
	defer ref.Release()
	d, addr := ref.Data, ref.Addr

	if nodeIsLeaf(d) {
		i := searchNode(rec, d, addr, k)
		n := nodeN(d)
		if n < btLeafCap {
			leafInsertAt(rec, d, addr, i, k, v)
			return 0, 0, false, nil
		}
		// Split leaf.
		newRef, err := t.pool.NewPage(rec)
		if err != nil {
			return 0, 0, false, err
		}
		defer newRef.Release()
		nd := newRef.Data
		initLeaf(nd)
		half := n / 2
		for j := half; j < n; j++ {
			setNodeKey(nd, j-half, nodeKey(d, j))
			setLeafVal(nd, j-half, leafVal(d, j))
		}
		setNodeN(nd, n-half)
		setNodeN(d, half)
		setLeafNext(nd, leafNext(d))
		setLeafNext(d, newRef.ID)
		rec.StoreRange(newRef.Addr, (n-half)*8)
		if k >= nodeKey(nd, 0) {
			i = searchNode(rec, nd, newRef.Addr, k)
			leafInsertAt(rec, nd, newRef.Addr, i, k, v)
		} else {
			i = searchNode(rec, d, addr, k)
			leafInsertAt(rec, d, addr, i, k, v)
		}
		return nodeKey(nd, 0), newRef.ID, true, nil
	}

	i := searchNode(rec, d, addr, k)
	if i < nodeN(d) && nodeKey(d, i) == k {
		i++
	}
	rec.Load(addr+mem.Addr(btChildOff+i*4), true)
	child := innerChild(d, i)
	csep, cright, cgrew, err := t.insertAt(rec, child, k, v)
	if err != nil || !cgrew {
		return 0, 0, false, err
	}
	n := nodeN(d)
	if n < btInnerCap {
		innerInsertAt(rec, d, addr, i, csep, cright)
		return 0, 0, false, nil
	}
	// Split inner node.
	newRef, err := t.pool.NewPage(rec)
	if err != nil {
		return 0, 0, false, err
	}
	defer newRef.Release()
	nd := newRef.Data
	initInner(nd)
	half := n / 2
	promote := nodeKey(d, half)
	for j := half + 1; j < n; j++ {
		setNodeKey(nd, j-half-1, nodeKey(d, j))
	}
	for j := half + 1; j <= n; j++ {
		setInnerChild(nd, j-half-1, innerChild(d, j))
	}
	setNodeN(nd, n-half-1)
	setNodeN(d, half)
	rec.StoreRange(newRef.Addr, (n-half)*12)
	if csep >= promote {
		j := searchNode(rec, nd, newRef.Addr, csep)
		innerInsertAt(rec, nd, newRef.Addr, j, csep, cright)
	} else {
		j := searchNode(rec, d, addr, csep)
		innerInsertAt(rec, d, addr, j, csep, cright)
	}
	return promote, newRef.ID, true, nil
}

func leafInsertAt(rec *trace.Recorder, d []byte, addr mem.Addr, i int, k int64, v uint64) {
	n := nodeN(d)
	copy(d[btKeyOff+(i+1)*8:btKeyOff+(n+1)*8], d[btKeyOff+i*8:btKeyOff+n*8])
	copy(d[btLeafValOff+(i+1)*8:btLeafValOff+(n+1)*8], d[btLeafValOff+i*8:btLeafValOff+n*8])
	setNodeKey(d, i, k)
	setLeafVal(d, i, v)
	setNodeN(d, n+1)
	rec.Store(addr + mem.Addr(btKeyOff+i*8))
	rec.Store(addr + mem.Addr(btLeafValOff+i*8))
}

func innerInsertAt(rec *trace.Recorder, d []byte, addr mem.Addr, i int, k int64, right PageID) {
	n := nodeN(d)
	copy(d[btKeyOff+(i+1)*8:btKeyOff+(n+1)*8], d[btKeyOff+i*8:btKeyOff+n*8])
	copy(d[btChildOff+(i+2)*4:btChildOff+(n+2)*4], d[btChildOff+(i+1)*4:btChildOff+(n+1)*4])
	setNodeKey(d, i, k)
	setInnerChild(d, i+1, right)
	setNodeN(d, n+1)
	rec.Store(addr + mem.Addr(btKeyOff+i*8))
	rec.Store(addr + mem.Addr(btChildOff+(i+1)*4))
}

// Delete removes one entry matching (k, v); it reports whether one was
// found. Leaves may underflow; they are not rebalanced (deletes are rare
// in the workloads — TPC-C's Delivery — and underflow does not affect
// correctness).
func (t *BTree) Delete(rec *trace.Recorder, k int64, v uint64) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writes++
	leaf, err := t.descend(rec, k)
	if err != nil {
		return false, err
	}
	defer leaf.Release()
	d, addr := leaf.Data, leaf.Addr
	// Walk duplicates within the leaf (duplicates never straddle leaves
	// except transiently after splits; acceptable for the workloads).
	for i := searchNode(rec, d, addr, k); i < nodeN(d) && nodeKey(d, i) == k; i++ {
		rec.Load(addr+mem.Addr(btLeafValOff+i*8), true)
		if leafVal(d, i) != v {
			continue
		}
		n := nodeN(d)
		copy(d[btKeyOff+i*8:btKeyOff+(n-1)*8], d[btKeyOff+(i+1)*8:btKeyOff+n*8])
		copy(d[btLeafValOff+i*8:btLeafValOff+(n-1)*8], d[btLeafValOff+(i+1)*8:btLeafValOff+n*8])
		setNodeN(d, n-1)
		rec.Store(addr + mem.Addr(btKeyOff+i*8))
		return true, nil
	}
	return false, nil
}

// Cursor iterates leaf entries in key order. Its position is a leaf and an
// index into it, which an insert or delete elsewhere in the leaf shifts and
// a split moves to another page; so the cursor remembers the tree's write
// count and the key it resumes from, and when the count has moved — another
// worker wrote between two steps — it descends again to the first entry at
// or after that key before it reads. Without that, a Delivery summing its
// order's lines while another partition's commit inserted into the same
// leaf read a line twice, and the database state depended on host
// scheduling. The repair is this implementation's bookkeeping and is not
// traced. After a concurrent write, entries that share the last returned
// key and were not yet returned are skipped; every index scanned beside
// writers has unique keys.
type Cursor struct {
	tree   *BTree
	pid    PageID
	idx    int
	writes uint64 // tree.writes when (pid, idx) was taken
	resume int64  // the next entry is the first with key >= resume
}

// Seek positions a cursor at the first entry with key >= k.
func (t *BTree) Seek(rec *trace.Recorder, k int64) (*Cursor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf, err := t.descend(rec, k)
	if err != nil {
		return nil, err
	}
	defer leaf.Release()
	i := searchNode(rec, leaf.Data, leaf.Addr, k)
	return &Cursor{tree: t, pid: leaf.ID, idx: i, writes: t.writes, resume: k}, nil
}

// Next returns the cursor's current entry and advances, or ok=false at
// the end of the tree. Each step holds the tree's read lock, so steps
// never observe a leaf mid-split, and a step that follows another
// worker's write finds its place again first: a scan returns every entry
// of its range that was there throughout, once, in key order (not a
// serializable snapshot: entries written meanwhile may or may not show).
func (c *Cursor) Next(rec *trace.Recorder) (k int64, v uint64, ok bool, err error) {
	c.tree.mu.RLock()
	defer c.tree.mu.RUnlock()
	if c.pid != InvalidPage && c.writes != c.tree.writes {
		leaf, err := c.tree.descend(nil, c.resume)
		if err != nil {
			return 0, 0, false, err
		}
		c.pid, c.idx = leaf.ID, searchNode(nil, leaf.Data, leaf.Addr, c.resume)
		c.writes = c.tree.writes
		leaf.Release()
	}
	for {
		if c.pid == InvalidPage {
			return 0, 0, false, nil
		}
		ref, err := c.tree.pool.Get(rec, c.pid)
		if err != nil {
			return 0, 0, false, err
		}
		if c.idx < nodeN(ref.Data) {
			k = nodeKey(ref.Data, c.idx)
			v = leafVal(ref.Data, c.idx)
			rec.Load(ref.Addr+mem.Addr(btKeyOff+c.idx*8), true)
			rec.Load(ref.Addr+mem.Addr(btLeafValOff+c.idx*8), false)
			c.idx++
			if c.resume = k; k < math.MaxInt64 {
				c.resume = k + 1
			}
			ref.Release()
			return k, v, true, nil
		}
		c.pid = leafNext(ref.Data)
		c.idx = 0
		ref.Release()
	}
}

// Validate checks structural invariants (sorted keys, consistent heights)
// and returns the entry count. Used by tests.
func (t *BTree) Validate() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.validate(t.root, t.height)
}

func (t *BTree) validate(pid PageID, depth int) (int, error) {
	ref, err := t.pool.Get(nil, pid)
	if err != nil {
		return 0, err
	}
	defer ref.Release()
	d := ref.Data
	n := nodeN(d)
	for i := 1; i < n; i++ {
		if nodeKey(d, i-1) > nodeKey(d, i) {
			return 0, fmt.Errorf("btree: page %d keys out of order at %d", pid, i)
		}
	}
	if nodeIsLeaf(d) {
		if depth != 1 {
			return 0, fmt.Errorf("btree: leaf at depth %d", depth)
		}
		return n, nil
	}
	if depth <= 1 {
		return 0, fmt.Errorf("btree: inner node at leaf depth")
	}
	total := 0
	for i := 0; i <= n; i++ {
		c, err := t.validate(innerChild(d, i), depth-1)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
