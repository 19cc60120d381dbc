package phys

import (
	"fmt"
	"math/rand"
	"testing"
)

// moveMemSize is five full pages and a short final one, so ranges
// straddle line and page boundaries and the memory's end.
const moveMemSize = 5*pageSize + pageSize/2 + lineSize/2

// moveWorld builds one memory from seed: a page is left never written,
// or each of its lines is left never written, filled with random
// bytes, written then zeroed (materialized zeros), or given a few
// random words. With snap set it is snapshotted and some words are
// written again, so some pages and lines are shared with the snapshot
// and some are private copies.
func moveWorld(t *testing.T, seed int64, snap bool) (*Memory, *Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := New(moveMemSize)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for base := 0; base < moveMemSize; base += lineSize {
		if base%pageSize == 0 && rng.Intn(4) == 0 {
			base += pageSize - lineSize
			continue
		}
		n := min(lineSize, moveMemSize-base)
		switch rng.Intn(4) {
		case 1:
			b := make([]byte, n)
			rng.Read(b)
			must(m.WriteBytes(Addr(base), b))
		case 2:
			must(m.Fill(Addr(base), n, 0xa5))
			must(m.Fill(Addr(base), n, 0))
		case 3:
			for i := 0; i < 4; i++ {
				must(m.Write(Addr(base+rng.Intn(n/8)*8), Size64, rng.Uint64()))
			}
		}
	}
	if !snap {
		return m, nil
	}
	s := m.Snapshot()
	for i := rng.Intn(3); i > 0; i-- {
		must(m.Write(Addr(rng.Intn(moveMemSize/8)*8), Size64, rng.Uint64()))
	}
	return m, s
}

// moveCase draws (dst, src, n): small, line-sized, page-sized and
// multi-page lengths, overlap in both directions, and ranges that run past the
// end of memory on either side.
func moveCase(rng *rand.Rand) (dst, src Addr, n int) {
	switch rng.Intn(5) {
	case 0:
		n = rng.Intn(64)
	case 1:
		n = lineSize
	case 2:
		n = pageSize
	default:
		n = rng.Intn(3 * pageSize)
	}
	src = Addr(rng.Intn(moveMemSize + 1))
	switch rng.Intn(5) {
	case 0, 1:
		d := Addr(rng.Intn(n + 1))
		if rng.Intn(2) == 0 && src >= d {
			dst = src - d
		} else {
			dst = src + d
		}
	case 2:
		dst = src
	default:
		dst = Addr(rng.Intn(moveMemSize + 1))
	}
	return dst, src, n
}

// ownership is page i's ownership word: which of the page header and
// its lines the memory holds alone (all of them before any snapshot).
func ownership(m *Memory, i int) uint16 {
	if m.own == nil {
		return pageOwned | 1<<pageLines - 1
	}
	return m.own[i]
}

// sameMemory reports the first difference a move may leave between
// two memories: which pages and lines exist and the lines' bytes,
// which page headers and lines are shared with a snapshot, and the
// counters.
func sameMemory(a, b *Memory) error {
	for i := range a.pages {
		pa, pb := a.pages[i], b.pages[i]
		if (pa == nil) != (pb == nil) {
			return fmt.Errorf("page %d written %v, %v", i, pa != nil, pb != nil)
		}
		for j := 0; pa != nil && j < pageLines; j++ {
			la, lb := pa[j], pb[j]
			if (la == nil) != (lb == nil) || la != nil && *la != *lb {
				return fmt.Errorf("page %d line %d differs (written %v, %v)", i, j, la != nil, lb != nil)
			}
		}
		if pa == nil {
			continue
		}
		if oa, ob := ownership(a, i), ownership(b, i); oa&pageOwned != ob&pageOwned {
			return fmt.Errorf("page %d shared %v, %v", i, oa&pageOwned == 0, ob&pageOwned == 0)
		} else if oa != ob {
			return fmt.Errorf("page %d owned lines %08b, %08b", i, oa&^pageOwned, ob&^pageOwned)
		}
	}
	if a.ctr != b.ctr {
		return fmt.Errorf("counters %+v, %+v", a.ctr, b.ctr)
	}
	return nil
}

// TestMoveMatchesReadWrite: Move leaves memory (contents, which pages
// and lines are materialized, which stay shared with a snapshot), the
// counters and the error exactly as ReadInto into a buffer followed by
// WriteBytes do, over seeded moves that overlap in both directions,
// straddle lines and pages, read and write never-written lines and
// pages, touch pages and lines shared with a snapshot, and run out of range on either side; and the
// snapshot itself never changes.
func TestMoveMatchesReadWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var overlaps, faults int
	for trial := 0; trial < 2000; trial++ {
		seed, snap := rng.Int63(), rng.Intn(2) == 0
		got, gotSnap := moveWorld(t, seed, snap)
		want, wantSnap := moveWorld(t, seed, snap)
		dst, src, n := moveCase(rng)
		if dst != src && dst < src+Addr(n) && src < dst+Addr(n) {
			overlaps++
		}
		gotErr := got.Move(dst, src, n)
		buf := make([]byte, n)
		wantErr := want.ReadInto(src, buf)
		if wantErr == nil {
			wantErr = want.WriteBytes(dst, buf)
		}
		if wantErr != nil {
			faults++
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d Move(%v, %v, %d): error %v, want %v", trial, dst, src, n, gotErr, wantErr)
		}
		if err := sameMemory(got, want); err != nil {
			t.Fatalf("trial %d Move(%v, %v, %d) (snapshot %v) against ReadInto+WriteBytes: %v", trial, dst, src, n, snap, err)
		}
		if snap {
			a, b := New(moveMemSize), New(moveMemSize)
			if err := a.Restore(gotSnap); err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(wantSnap); err != nil {
				t.Fatal(err)
			}
			if err := sameMemory(a, b); err != nil {
				t.Fatalf("trial %d Move(%v, %v, %d): the snapshot changed: %v", trial, dst, src, n, err)
			}
		}
	}
	if overlaps < 200 || faults < 100 {
		t.Fatalf("%d overlapping and %d out-of-range moves; the draw no longer covers them", overlaps, faults)
	}
}
