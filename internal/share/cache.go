// Result-reuse cache: the second half of cross-query work sharing.
// Aggregate subplans produce small results from large scans, so when many
// clients fire the same parameterized query the server should compute it
// once per table version and serve the memoized rows afterwards. Staleness
// is impossible by construction: the key embeds each read table's write
// version, which storage bumps on every insert and in-place update (and
// therefore on every write a transaction later commits).

package share

import (
	"container/list"
	"sync"

	"repro/internal/engine"
)

// maxKeyTables bounds how many table versions a key carries losslessly
// (the widest memoized plan, Q13, reads two tables).
const maxKeyTables = 4

// ResultKey identifies one memoizable aggregate result.
type ResultKey struct {
	// Tables names the tables the plan reads, in plan order.
	Tables string
	// Versions holds each table's write version at key time, in the same
	// order, zero-padded. Kept lossless — not hashed — so a write to any
	// read table structurally cannot collide back onto a stale entry.
	Versions [maxKeyTables]uint64
	// Plan fingerprints the plan's logical result apart from the tables'
	// contents: for the DSS plans, a hash of the query number and its
	// scans' predicates.
	Plan uint64
}

// Versions packs table versions into a key component; it panics beyond
// maxKeyTables (widen the array rather than hash).
func Versions(vs ...uint64) [maxKeyTables]uint64 {
	var out [maxKeyTables]uint64
	if len(vs) > maxKeyTables {
		panic("share: too many table versions for a result key")
	}
	copy(out[:], vs)
	return out
}

// CacheStats counts result-cache activity.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// ResultCache memoizes completed aggregate results under ResultKey with
// LRU eviction. A stale hit cannot occur: any write to a read table
// changes its version and therefore the key. Superseded entries age out
// through the LRU.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List
	entries map[ResultKey]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key  ResultKey
	rows [][]engine.Value
}

// NewResultCache creates a cache holding up to capacity results
// (default 128).
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &ResultCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[ResultKey]*list.Element),
	}
}

// Get returns the memoized rows for k, if present. The returned slice is
// shared and must not be mutated (result rows are treated as immutable
// throughout the engine).
func (c *ResultCache) Get(k ResultKey) ([][]engine.Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).rows, true
}

// Put memoizes rows under k, evicting the least recently used entry when
// full.
func (c *ResultCache) Put(k ResultKey, rows [][]engine.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).rows = rows
		c.ll.MoveToFront(el)
		return
	}
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, rows: rows})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.entries, el.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len()}
}
