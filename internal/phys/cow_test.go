package phys

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestSnapshotLinesIsolated: after a snapshot of a page whose even
// lines hold data, the origin writes one written line, and two
// memories restored from the snapshot, running concurrently, write
// another written line and a never-written one of the same page. Each
// writer reads its own bytes and the snapshot's everywhere else, the
// lines it did not write stay shared with the snapshot, and the
// snapshot still reads as it did when taken.
func TestSnapshotLinesIsolated(t *testing.T) {
	const size = 4 * pageSize
	const base = Addr(pageSize) // page 1
	lineAt := func(j int) Addr { return base + Addr(j*lineSize) }
	snapVal := func(j int) uint64 {
		if j%2 == 0 {
			return uint64(0x100 + j)
		}
		return 0 // never written before the snapshot
	}
	origin := New(size)
	for j := 0; j < pageLines; j += 2 {
		if err := origin.Write(lineAt(j), Size64, snapVal(j)); err != nil {
			t.Fatal(err)
		}
	}
	s := origin.Snapshot()

	type writer struct {
		m    *Memory
		line int
	}
	writers := []writer{{origin, 0}, {New(size), 2}, {New(size), 3}}
	var wg sync.WaitGroup
	errs := make([]error, len(writers))
	for i, w := range writers {
		if i > 0 {
			if err := w.m.Restore(s); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.m.Write(lineAt(w.line), Size64, uint64(0xa0+i))
		}()
	}
	wg.Wait()
	for i, w := range writers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for j := 0; j < pageLines; j++ {
			want := snapVal(j)
			if j == w.line {
				want = uint64(0xa0 + i)
			}
			if got, err := w.m.Read(lineAt(j), Size64); err != nil || got != want {
				t.Fatalf("writer %d line %d reads %#x, %v; want %#x", i, j, got, err, want)
			}
			if j != w.line && w.m.pages[1][j] != s.pages[1][j] {
				t.Fatalf("writer %d copied line %d, which it did not write", i, j)
			}
		}
		if w.m.pages[1] == s.pages[1] {
			t.Fatalf("writer %d wrote into the snapshot's page header", i)
		}
	}
	check := New(size)
	if err := check.Restore(s); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < pageLines; j++ {
		if got, _ := check.Read(lineAt(j), Size64); got != snapVal(j) {
			t.Fatalf("the snapshot's line %d reads %#x after the writes, want %#x", j, got, snapVal(j))
		}
	}
}

// TestSharedPageWriteAllocs: an 8-byte write into a page shared with a
// snapshot allocates at most the page's header and the one line it
// writes, whether that line is shared or was never written, and a
// second write to the same line allocates nothing.
func TestSharedPageWriteAllocs(t *testing.T) {
	m := New(4 * pageSize)
	if err := m.Fill(pageSize, pageSize, 0x5a); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(2*pageSize, Size64, 1); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	const runs = 100
	const most = unsafe.Sizeof(page{}) + lineSize
	for _, addr := range []Addr{pageSize + 3*lineSize + 8, 2*pageSize + 5*lineSize} {
		write := func() {
			if err := m.Restore(s); err != nil {
				t.Fatal(err)
			}
			if err := m.Write(addr, Size64, 9); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(runs, write); allocs > 2 {
			t.Fatalf("a write at %v into a shared page allocates %.1f times, want at most 2", addr, allocs)
		}
		// Bytes are averaged over many more writes, so that what the
		// runtime itself allocates meanwhile rounds away.
		const byteRuns = 100 * runs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < byteRuns; i++ {
			write()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / byteRuns; per > uint64(most) {
			t.Fatalf("a write at %v into a shared page allocates %d bytes, want at most %d", addr, per, most)
		}
		if allocs := testing.AllocsPerRun(runs, func() {
			if err := m.Write(addr+8, Size64, 10); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("a second write to the line at %v allocates %.1f times", addr, allocs)
		}
	}
}
