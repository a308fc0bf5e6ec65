package storage

import (
	"sync"
	"testing"

	"repro/internal/mem"
)

func testHeap(t *testing.T) *HeapFile {
	t.Helper()
	arena := mem.NewArena(mem.HeapBase, 8<<20)
	codes := mem.NewCodeMap()
	pool := NewBufferPool(arena, 512, 1024, codes)
	return NewHeapFile(pool, []int{8, 8}, codes, "vtest")
}

// TestHeapVersionBumpsOnWrites pins the invariant the result-reuse cache
// depends on: every insert and in-place update advances Version, so a
// cache key minted before a write can never match after it.
func TestHeapVersionBumpsOnWrites(t *testing.T) {
	h := testHeap(t)
	if v := h.Version(); v != 0 {
		t.Fatalf("fresh heap version = %d, want 0", v)
	}
	row := make([]byte, 16)
	rid, err := h.Insert(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	if v := h.Version(); v != 1 {
		t.Fatalf("version after insert = %d, want 1", v)
	}
	if err := h.UpdateNSM(nil, rid, row); err != nil {
		t.Fatal(err)
	}
	if v := h.Version(); v != 2 {
		t.Fatalf("version after update = %d, want 2", v)
	}
}

// TestHeapVersionAtomicUnderConcurrency checks the counter is exact under
// concurrent writers (the txn workloads update heaps from many clients).
func TestHeapVersionAtomicUnderConcurrency(t *testing.T) {
	h := testHeap(t)
	row := make([]byte, 16)
	rid, err := h.Insert(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	const writers, updates = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16)
			for i := 0; i < updates; i++ {
				if err := h.UpdateNSM(nil, rid, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v := h.Version(); v != 1+writers*updates {
		t.Fatalf("version = %d, want %d", v, 1+writers*updates)
	}
}
