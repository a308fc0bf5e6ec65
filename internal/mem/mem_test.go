package mem

import (
	"testing"
	"testing/quick"
)

func TestArenaAllocAlignment(t *testing.T) {
	a := NewArena(HeapBase, 1<<16)
	for _, align := range []int{1, 2, 4, 8, 16, 64, 4096} {
		addr := a.Alloc(10, align)
		if uint64(addr)%uint64(align) != 0 {
			t.Errorf("Alloc align %d returned %#x, not aligned", align, uint64(addr))
		}
	}
}

func TestArenaAllocDisjoint(t *testing.T) {
	a := NewArena(HeapBase, 1<<16)
	p := a.Alloc(100, 8)
	q := a.Alloc(100, 8)
	if q < p+100 {
		t.Fatalf("allocations overlap: p=%#x q=%#x", uint64(p), uint64(q))
	}
	copy(a.Bytes(p, 100), make([]byte, 100))
	b := a.Bytes(p, 100)
	b[0] = 0xAA
	if a.Bytes(q, 100)[0] == 0xAA {
		t.Fatal("write to p visible at q")
	}
}

func TestArenaBytesRoundTrip(t *testing.T) {
	a := NewArena(HeapBase, 4096)
	addr := a.Alloc(16, 8)
	copy(a.Bytes(addr, 16), []byte("hello simulated!"))
	got := string(a.Bytes(addr, 16))
	if got != "hello simulated!" {
		t.Fatalf("round trip = %q", got)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	a := NewArena(HeapBase, 64)
	a.Alloc(65, 1)
}

func TestArenaOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-arena access")
		}
	}()
	a := NewArena(HeapBase, 64)
	a.Bytes(HeapBase+60, 8)
}

func TestArenaReset(t *testing.T) {
	a := NewArena(WorkBase, 1024)
	first := a.Alloc(512, 8)
	a.Reset()
	second := a.Alloc(512, 8)
	if first != second {
		t.Fatalf("after Reset, Alloc = %#x, want %#x", uint64(second), uint64(first))
	}
}

// TestArenaCarved: Carved counts what Carve reserved, its alignment
// padding included, and no other allocation; Reset, Recycle and
// MarkClean each start the count again.
func TestArenaCarved(t *testing.T) {
	a := NewArena(WorkBase, 1<<16)
	a.Alloc(10, 8)
	a.Carve(1000)
	a.Alloc(100, 8)
	a.Carve(64)
	if want := (64 - 10) + 1000 + (1216 - 1164) + 64; a.Carved() != want {
		t.Fatalf("Carved = %d, want %d", a.Carved(), want)
	}
	for _, clear := range []func(){a.Reset, func() { a.Recycle(WorkBase) }, a.MarkClean} {
		a.Carve(128)
		clear()
		if a.Carved() != 0 {
			t.Fatalf("Carved = %d after the arena was emptied", a.Carved())
		}
	}
}

func TestArenaContains(t *testing.T) {
	a := NewArena(HeapBase, 128)
	if !a.Contains(HeapBase) || !a.Contains(HeapBase+127) {
		t.Error("Contains misses interior addresses")
	}
	if a.Contains(HeapBase+128) || a.Contains(HeapBase-1) {
		t.Error("Contains accepts exterior addresses")
	}
}

func TestLine(t *testing.T) {
	for _, tc := range []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {65, 64}, {1000, 960},
	} {
		if got := tc.in.Line(); got != tc.want {
			t.Errorf("Line(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestLineProperty(t *testing.T) {
	f := func(a uint64) bool {
		l := Addr(a).Line()
		return uint64(l)%LineSize == 0 && l <= Addr(a) && Addr(a)-l < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodeMapRegister(t *testing.T) {
	m := NewCodeMap()
	s1 := m.Register("scan", 2000)
	s2 := m.Register("join", 8192)
	if s1.Size%LineSize != 0 {
		t.Errorf("segment size %d not line-rounded", s1.Size)
	}
	if s2.Base < s1.Base+Addr(s1.Size) {
		t.Errorf("segments overlap: scan=%+v join=%+v", s1, s2)
	}
	if again := m.Register("scan", 999); again != s1 {
		t.Errorf("re-register returned %+v, want %+v", again, s1)
	}
	if got, ok := m.Lookup("join"); !ok || got != s2 {
		t.Errorf("Lookup(join) = %+v, %v", got, ok)
	}
	if _, ok := m.Lookup("nope"); ok {
		t.Error("Lookup of unregistered name succeeded")
	}
}

func TestCodeSegInstructions(t *testing.T) {
	s := CodeSeg{Base: CodeBase, Size: 256}
	if s.Instructions() != 64 {
		t.Fatalf("Instructions = %d, want 64", s.Instructions())
	}
}

// TestArenaReuseRecycle: a recycled arena is a fresh one at the new base —
// nothing allocated, every byte zero — even when the dirtying allocations
// were made before a Reset, which lowers the offset but not the
// high-water mark Recycle clears up to.
func TestArenaReuseRecycle(t *testing.T) {
	a := NewArena(WorkBase, 1<<16)
	p := a.Alloc(5000, 64)
	for i, b := 0, a.Bytes(p, 5000); i < len(b); i++ {
		b[i] = 0xEE
	}
	a.Reset()
	q := a.Alloc(100, 8)
	a.Bytes(q, 100)[99] = 0x11
	if a.Used() != 100 {
		t.Fatalf("Used after Reset+Alloc = %d, want 100", a.Used())
	}

	base := WorkBase + 1<<30
	a.Recycle(base)
	if a.Base() != base || a.Used() != 0 || a.Size() != 1<<16 {
		t.Fatalf("recycled arena: base %#x used %d size %d", uint64(a.Base()), a.Used(), a.Size())
	}
	buf, rawBase := a.Raw()
	if rawBase != base {
		t.Fatalf("Raw base %#x, want %#x", uint64(rawBase), uint64(base))
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d of a recycled arena is %#x", i, b)
		}
	}
	if got := a.Alloc(8, 8); got != base {
		t.Fatalf("first Alloc after Recycle at %#x, want the base %#x", uint64(got), uint64(base))
	}
	if a.Contains(WorkBase) {
		t.Fatal("recycled arena still claims its old address range")
	}
}

// TestArenaReuseMarkClean: MarkClean takes the owner's word that the arena
// is all zero again, so the Recycle that follows clears nothing — which a
// byte the owner did not clear shows.
func TestArenaReuseMarkClean(t *testing.T) {
	a := NewArena(HeapBase, 1<<16)
	p := a.Alloc(1<<15, 64)
	a.Bytes(p, 1<<15)[7] = 0xEE
	a.MarkClean()
	if a.Used() != 0 {
		t.Fatalf("Used after MarkClean = %d, want 0", a.Used())
	}
	a.Recycle(HeapBase)
	if buf, _ := a.Raw(); buf[7] != 0xEE {
		t.Fatal("Recycle after MarkClean cleared bytes it was told are clean")
	}
	if got := a.Alloc(8, 8); got != HeapBase {
		t.Fatalf("first Alloc after MarkClean at %#x, want the base", uint64(got))
	}
}
