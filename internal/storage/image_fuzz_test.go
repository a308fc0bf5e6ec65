// Fuzzing of BufferPool.Restore against malformed images: a snapshot's
// page list, page bytes, clock hand and arena counters are mutated, and
// Restore must refuse exactly the images no pool could have left behind —
// with an error, not a panic — while a pool it accepts serves every page
// the image lists. testdata/fuzz/FuzzPoolImage holds the named seeds.

package storage

import (
	"encoding/binary"
	"slices"
	"sync"
	"testing"
)

const (
	fuzzImageFrames   = 6
	fuzzImageMaxPages = 8
)

var (
	fuzzImageOnce sync.Once
	fuzzImage     *PoolImage
)

// sourceImage is a snapshot (taken once) of a spilled pool: every frame in
// use, pages on disk, the page table grown.
func sourceImage(t *testing.T) *PoolImage {
	t.Helper()
	fuzzImageOnce.Do(func() {
		src := newImageFixture(t, fuzzImageFrames, fuzzImageMaxPages)
		src.load(t, 0, 600)
		fuzzImage, _, _ = src.snapshot(t)
	})
	if fuzzImage == nil {
		t.Fatal("no source image")
	}
	return fuzzImage
}

// FuzzPoolImage restores a mutated snapshot into a pool that has just had
// the source's schema created in it. keep is the length of the source's
// page list kept, add two bytes per page id appended to it; the page
// bytes follow the list's length plus dataDelta, the clock bits its
// length; hand and arenaDelta move the clock hand and the arena's used
// bytes.
func FuzzPoolImage(f *testing.F) {
	f.Add(uint8(fuzzImageFrames), []byte(nil), int16(0), int16(0), int32(0))
	f.Fuzz(func(t *testing.T, keep uint8, add []byte, dataDelta, hand int16, arenaDelta int32) {
		src := sourceImage(t)
		img := *src
		img.pages = slices.Clone(src.pages[:min(int(keep), len(src.pages))])
		for i := 0; i+1 < len(add) && i < 32; i += 2 {
			img.pages = append(img.pages, PageID(binary.LittleEndian.Uint16(add[i:])))
		}
		n := len(img.pages)
		img.data = make([]byte, max(0, n*PageSize+int(dataDelta)))
		copy(img.data, src.data)
		img.clockRef = make([]bool, n)
		copy(img.clockRef, src.clockRef)
		img.hand = src.hand + int(hand)
		img.arenaUsed = src.arenaUsed + int(arenaDelta)

		dst := newImageFixture(t, fuzzImageFrames, fuzzImageMaxPages)
		valid := n <= img.frames && n >= dst.pool.used && dataDelta == 0 &&
			img.hand >= 0 && img.hand < img.frames &&
			img.arenaUsed >= dst.pool.arena.Used() && img.arenaUsed <= img.arenaSize
		seen := map[PageID]bool{}
		for _, pid := range img.pages {
			valid = valid && pid != InvalidPage && pid <= img.nextPage && !seen[pid]
			seen[pid] = true
		}
		err := dst.pool.Restore(&img)
		if valid != (err == nil) {
			t.Fatalf("image of %d pages %v, %d bytes, hand %d, arena %d of %d: valid %v, restore error %v",
				n, img.pages, len(img.data), img.hand, img.arenaUsed, img.arenaSize, valid, err)
		}
		if err != nil {
			return
		}
		for _, pid := range img.pages {
			ref, err := dst.pool.Get(nil, pid)
			if err != nil {
				t.Fatalf("restored pool cannot serve page %d: %v", pid, err)
			}
			ref.Release()
		}
		if ref, err := dst.pool.NewPage(nil); err == nil {
			ref.Release()
		}
	})
}
