package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestOddCapacityAbsorbedIntoAssociativity(t *testing.T) {
	// 26MB with nominal 8-way: sets must stay a power of two with the
	// odd factor in associativity, capacity preserved.
	c := New(26<<20, 8)
	if c.Sets()&(c.Sets()-1) != 0 {
		t.Fatalf("sets = %d, not a power of two", c.Sets())
	}
	if c.SizeBytes() < 26<<20 {
		t.Fatalf("capacity %d below requested", c.SizeBytes())
	}
	if c.Assoc() < 8 {
		t.Fatalf("assoc = %d, below nominal", c.Assoc())
	}
}

func TestCacheGeometryProperty(t *testing.T) {
	f := func(mb uint8, assocPow uint8) bool {
		size := (int(mb)%32 + 1) << 20
		assoc := 1 << (assocPow % 5)
		c := New(size, assoc)
		return c.Sets()&(c.Sets()-1) == 0 && c.SizeBytes() >= size && c.Assoc() >= assoc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInclusionInvariantUnderRandomTraffic(t *testing.T) {
	// After arbitrary CMP traffic, every valid L1 line must be present in
	// the shared L2 (the hierarchy maintains inclusion).
	h := NewHierarchy(Config{
		Cores: 4, L1DSize: 8 << 10, L1ISize: 8 << 10,
		L2Size: 64 << 10, L2Assoc: 2, L2Lat: 10, SharedL2: true,
	})
	rng := rand.New(rand.NewSource(11))
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		core := rng.Intn(4)
		a := mem.Addr(rng.Intn(256<<10)) &^ 63
		switch rng.Intn(3) {
		case 0:
			h.Read(core, a, now)
		case 1:
			h.Write(core, a, now)
		default:
			h.Fetch(core, a, now)
		}
		now += uint64(rng.Intn(20))
	}
	for core := 0; core < 4; core++ {
		for i := 0; i < 256<<10; i += mem.LineSize {
			line := mem.Addr(i)
			if h.l1d[core].Probe(line) != Invalid && h.l2[0].Probe(line) == Invalid {
				t.Fatalf("core %d L1D holds %#x but shared L2 does not", core, uint64(line))
			}
			if h.l1i[core].Probe(line) != Invalid && h.l2[0].Probe(line) == Invalid {
				t.Fatalf("core %d L1I holds %#x but shared L2 does not", core, uint64(line))
			}
		}
	}
}

func TestSingleWriterInvariant(t *testing.T) {
	// At most one L1 may hold a line Modified at any time under random
	// CMP read/write traffic.
	h := NewHierarchy(Config{Cores: 4, L2Size: 1 << 20, L2Lat: 10, SharedL2: true})
	rng := rand.New(rand.NewSource(12))
	now := uint64(0)
	for i := 0; i < 30000; i++ {
		core := rng.Intn(4)
		a := mem.Addr(rng.Intn(64) * 64) // 64 hot lines: heavy sharing
		if rng.Intn(2) == 0 {
			h.Write(core, a, now)
		} else {
			h.Read(core, a, now)
		}
		now += 3
		owners := 0
		for c := 0; c < 4; c++ {
			if h.l1d[c].Probe(a) == Modified {
				owners++
			}
		}
		if owners > 1 {
			t.Fatalf("line %#x has %d modified owners", uint64(a), owners)
		}
	}
}

func TestWriteThenReadSameCoreIsL1(t *testing.T) {
	h := newTestHier(true, 2)
	h.Write(0, 0xABC0, 10)
	if r := h.Read(0, 0xABC0, 20); r.Level != LvlL1 {
		t.Fatalf("own dirty read = %v, want L1", r.Level)
	}
}

func TestSMPUpgradeInvalidatesRemoteL2(t *testing.T) {
	h := newTestHier(false, 2)
	// Both nodes read (shared everywhere).
	h.Read(0, 0x9000, 10)
	h.Read(1, 0x9000, 20)
	// Node 0 writes: remote node's copies must vanish.
	h.Write(0, 0x9000, 30)
	if h.l2[1].Probe(mem.Addr(0x9000).Line()) != Invalid {
		t.Fatal("remote L2 copy survived upgrade")
	}
	if h.l1d[1].Probe(mem.Addr(0x9000).Line()) != Invalid {
		t.Fatal("remote L1 copy survived upgrade")
	}
	// And the subsequent remote read is a coherence transfer.
	if r := h.Read(1, 0x9000, 40); r.Level != LvlCoh {
		t.Fatalf("remote read after upgrade = %v, want coherence", r.Level)
	}
}

func TestWarmWriteGrantsOwnership(t *testing.T) {
	h := newTestHier(true, 2)
	h.WarmWrite(0, 0x7000)
	// A peer read must see the dirty line (L1-to-L1 transfer), proving
	// warming left real Modified state behind.
	r := h.Read(1, 0x7000, 100)
	if r.Level != LvlL2 || h.Stats.L1Transfers != 1 {
		t.Fatalf("peer read after warm write: %v, transfers=%d", r.Level, h.Stats.L1Transfers)
	}
}

func TestWarmFetchPopulatesL1I(t *testing.T) {
	h := newTestHier(true, 1)
	h.WarmFetch(0, mem.Addr(uint64(mem.CodeBase)))
	r := h.Fetch(0, mem.Addr(uint64(mem.CodeBase)), 50)
	if r.Level != LvlL1 {
		t.Fatalf("fetch after warm = %v, want L1", r.Level)
	}
}

func TestStreamBufferBoundedDepth(t *testing.T) {
	b := newStreamBuffer(2)
	for i := 0; i < 100; i++ {
		b.push(mem.Addr(i * 64))
	}
	if len(b.lines) > 4 {
		t.Fatalf("stream buffer grew to %d entries", len(b.lines))
	}
	// Most recent pushes must be retained.
	if !b.hit(99 * 64) {
		t.Fatal("most recent prefetch lost")
	}
}

func TestPortQueueTimesMoveForward(t *testing.T) {
	h := NewHierarchy(Config{
		Cores: 1, L2Size: 1 << 20, L2Lat: 10, SharedL2: true,
		L2Ports: 1, L2PortOcc: 3,
	})
	// Back-to-back L2 accesses at the same timestamp serialize.
	h.WarmRead(0, 0x100000) // in L2 via... warm puts it in L1 too; use distinct lines
	var prev uint64
	for i := 1; i <= 4; i++ {
		r := h.Read(0, mem.Addr(0x200000+i*4096), 1000)
		if r.DoneAt < prev {
			t.Fatalf("completion times regressed: %d after %d", r.DoneAt, prev)
		}
		prev = r.DoneAt
	}
}

func TestFetchNeverDirties(t *testing.T) {
	h := newTestHier(true, 2)
	h.Fetch(0, 0x5000, 10)
	if st := h.l1i[0].Probe(mem.Addr(0x5000).Line()); st == Modified || st == Invalid {
		t.Fatalf("instruction line state = %v", st)
	}
}

func TestStatsDeltasNonNegative(t *testing.T) {
	// The simulator subtracts snapshots; all counters must be monotonic.
	h := newTestHier(true, 2)
	before := h.Stats
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		h.Read(rng.Intn(2), mem.Addr(rng.Intn(1<<20))&^63, uint64(i))
	}
	after := h.Stats
	if after.L1DHits < before.L1DHits || after.L2Hits < before.L2Hits ||
		after.MemAccesses < before.MemAccesses {
		t.Fatal("counters regressed")
	}
}

// TestResetEqualsNew: a hierarchy that has served traffic of every kind —
// loads, stores, fetches through the stream buffers, prefetches still in
// flight, warming — is, after Reset, the hierarchy NewHierarchy builds:
// equal field for field, and answering the same traffic with the same
// results and counters. Shared and private L2s both.
func TestResetEqualsNew(t *testing.T) {
	traffic := func(h *Hierarchy, seed int64) []Result {
		rng := rand.New(rand.NewSource(seed))
		var out []Result
		now := uint64(0)
		for i := 0; i < 20000; i++ {
			core := rng.Intn(4)
			a := mem.Addr(rng.Intn(256<<10)) &^ 63
			switch rng.Intn(7) {
			case 0:
				out = append(out, h.Read(core, a, now))
			case 1:
				out = append(out, h.Write(core, a, now))
			case 2:
				out = append(out, h.Fetch(core, a, now))
			case 3:
				h.Prefetch(core, a, now)
			case 4:
				h.WarmRead(core, a)
			case 5:
				h.WarmWrite(core, a)
			default:
				h.WarmFetch(core, a)
			}
			now += uint64(rng.Intn(20))
		}
		return out
	}
	for _, shared := range []bool{true, false} {
		cfg := Config{
			Cores: 4, L1DSize: 8 << 10, L1ISize: 8 << 10,
			L2Size: 64 << 10, L2Assoc: 2, L2Lat: 10, SharedL2: shared, StreamBuf: true,
		}
		used := NewHierarchy(cfg)
		traffic(used, 11)
		if reflect.DeepEqual(used, NewHierarchy(cfg)) {
			t.Fatal("traffic left the hierarchy as new: the test would prove nothing")
		}
		used.Reset()
		fresh := NewHierarchy(cfg)
		if !reflect.DeepEqual(used, fresh) {
			t.Errorf("shared=%v: a reset hierarchy differs from a new one\n reset %+v\n new   %+v", shared, used, fresh)
		}
		got, want := traffic(used, 12), traffic(fresh, 12)
		if !reflect.DeepEqual(got, want) || used.Stats != fresh.Stats {
			t.Errorf("shared=%v: the same traffic on a reset hierarchy: stats %+v, on a new one %+v", shared, used.Stats, fresh.Stats)
		}
	}
}
