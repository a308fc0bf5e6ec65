package engine

import (
	"encoding/binary"
	"testing"

	"repro/internal/mem"
)

func TestParseJoinModeRoundTrip(t *testing.T) {
	for _, m := range []JoinMode{JoinAuto, JoinChained, JoinPartitioned, JoinPrefetch} {
		got, err := ParseJoinMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseJoinMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseJoinMode(""); err != nil || m != JoinAuto {
		t.Fatalf("empty join mode = %v, %v", m, err)
	}
	if _, err := ParseJoinMode("sideways"); err == nil {
		t.Fatal("bogus join mode accepted")
	}
}

func TestJoinPartsSizing(t *testing.T) {
	if p := joinParts(100, 24); p != 1 {
		t.Fatalf("tiny build partitioned into %d", p)
	}
	p := joinParts(100_000, 24)
	if p <= 1 || p&(p-1) != 0 || p > joinMaxParts {
		t.Fatalf("full-scale fan-out = %d, want a power of two in (1, %d]", p, joinMaxParts)
	}
	// Per-partition footprint lands under the budget (or the fan-out cap
	// was hit).
	if p < joinMaxParts && 100_000*(24+16)/p > JoinPartBudget {
		t.Fatalf("fan-out %d leaves partitions over budget", p)
	}
	if joinParts(0, 24) != 1 || joinParts(-5, 24) != 1 {
		t.Fatal("non-positive estimate should mean one partition")
	}
	if joinParts(1<<40, 24) != joinMaxParts {
		t.Fatal("huge estimate should clamp at joinMaxParts")
	}
}

// TestNewHashTableClampsBucketArray: an absurd cardinality hint must not
// let the bucket array swallow the workspace arena — the doubling stops
// at a quarter of the free bytes, and the table still works.
func TestNewHashTableClampsBucketArray(t *testing.T) {
	db := testDB(t)
	ctx := db.NewCtx(nil, 0, 4<<20)
	free := ctx.Work.Size() - ctx.Work.Used()
	h := NewHashTable(ctx, 1<<40, 8)
	if got := int(h.nbuckets) * 8; got > free/4 {
		t.Fatalf("bucket array = %d bytes, over a quarter of the %d free", got, free)
	}
	var row [8]byte
	binary.LittleEndian.PutUint64(row[:], 77)
	h.Insert(nil, 42, row[:])
	hits := 0
	h.Iter(nil, 42, func(payload []byte, _ mem.Addr) bool {
		if binary.LittleEndian.Uint64(payload) == 77 {
			hits++
		}
		return true
	})
	if hits != 1 {
		t.Fatalf("clamped table found %d matches, want 1", hits)
	}
}

// TestRadixPartMatchesChained: the fused single-pass radix build (both
// the traced Add and the native AddBlockNative) must produce, for every
// key, exactly the chained table's matches in the chained table's chain
// order — head-insertion in arrival order on both sides.
func TestRadixPartMatchesChained(t *testing.T) {
	db := testDB(t)
	ctx := testCtx(t, db)
	const rows, distinct = 4096, 512
	keyOf := func(i int) uint64 { return uint64(i%distinct) * 2654435761 }

	chained := NewHashTable(ctx, distinct, 8)
	rp := NewRadixPart(ctx, 8, 8, distinct, rows)
	nat := NewRadixPart(ctx, 8, 8, distinct, rows)
	{
		keys := make([]uint64, rows)
		buf := make([]byte, rows*8)
		for i := 0; i < rows; i++ {
			keys[i] = keyOf(i)
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(i))
		}
		nat.AddBlockNative(keys, buf, 8, nil, rows)
	}
	var row [8]byte
	for i := 0; i < rows; i++ {
		binary.LittleEndian.PutUint64(row[:], uint64(i))
		chained.Insert(nil, keyOf(i), row[:])
		rp.Add(keyOf(i), row[:])
	}
	pt, ptNat := rp.Build(), nat.Build()
	// part is key's partition table, routed as a partitioned probe does.
	part := func(pt *PartedTable, key uint64) *HashTable { return pt.tables[int(mix(key)>>radixShift&pt.mask)] }
	entries := func(pt *PartedTable) (n int) {
		for _, t := range pt.tables {
			n += t.Len()
		}
		return n
	}
	if entries(pt) != rows || entries(ptNat) != rows || chained.Len() != rows {
		t.Fatalf("entry counts: chained=%d traced=%d native=%d", chained.Len(), entries(pt), entries(ptNat))
	}
	collect := func(iter func(key uint64, fn func(payload []byte, at mem.Addr) bool), key uint64) []uint64 {
		var out []uint64
		iter(key, func(p []byte, _ mem.Addr) bool {
			out = append(out, binary.LittleEndian.Uint64(p))
			return true
		})
		return out
	}
	for k := 0; k < distinct; k++ {
		key := keyOf(k)
		want := collect(func(key uint64, fn func([]byte, mem.Addr) bool) { chained.Iter(nil, key, fn) }, key)
		got := collect(func(key uint64, fn func([]byte, mem.Addr) bool) { part(pt, key).Iter(nil, key, fn) }, key)
		gotNat := collect(func(key uint64, fn func([]byte, mem.Addr) bool) { part(ptNat, key).Iter(nil, key, fn) }, key)
		if len(want) != rows/distinct {
			t.Fatalf("key %d: chained found %d of %d", k, len(want), rows/distinct)
		}
		for i := range want {
			if got[i] != want[i] || gotNat[i] != want[i] {
				t.Fatalf("key %d match %d: chained=%d traced=%d native=%d", k, i, want[i], got[i], gotNat[i])
			}
		}
	}
	// Partition routing is consistent between the pass and the probe.
	for k := 0; k < distinct; k++ {
		if got, want := part(pt, keyOf(k)), pt.tables[rp.partOf(keyOf(k))]; got != want {
			t.Fatalf("key %d routed to a different partition at probe time", k)
		}
	}
}
