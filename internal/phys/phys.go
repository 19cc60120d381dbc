// Package phys models the physical (main) memory of a simulated
// workstation: a flat array of bytes addressed by physical address.
//
// DMA engines, the MMU page-table walker, and CPU cached accesses all
// resolve to reads and writes on this memory. Devices (including the DMA
// engine's register windows) live elsewhere in the physical address map
// and are decoded by the bus, not by this package.
package phys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"uldma/internal/obs"
)

// Addr is a physical byte address. The simulated machines use a 34-bit
// physical address space (as the Alpha 21064 did externally): low
// addresses are main memory, high addresses are I/O windows including the
// DMA engine's shadow space.
type Addr uint64

// String formats the address in hex.
func (a Addr) String() string { return fmt.Sprintf("%#x", uint64(a)) }

// AccessSize is the width of a single memory or bus access in bytes.
type AccessSize int

// Supported access widths.
const (
	Size8  AccessSize = 1
	Size16 AccessSize = 2
	Size32 AccessSize = 4
	Size64 AccessSize = 8
)

// Valid reports whether s is one of the supported access widths.
func (s AccessSize) Valid() bool {
	switch s {
	case Size8, Size16, Size32, Size64:
		return true
	}
	return false
}

// Error is returned for invalid physical memory accesses.
type Error struct {
	Op   string // "read" or "write"
	Addr Addr
	Size AccessSize
	Why  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("phys: %s %d bytes at %v: %s", e.Op, int(e.Size), e.Addr, e.Why)
}

// Counters counts traffic into a Memory, for experiment reporting: the
// memory's live obs cells, registered with the machine's registry at
// construction and captured by value in snapshots so access statistics
// rewind with the world.
type Counters struct {
	Reads      obs.Counter // word-sized read operations
	Writes     obs.Counter // word-sized write operations
	BytesRead  obs.Counter
	BytesWrote obs.Counter
}

// Two-level backing store: physical memory is materialized lazily, a
// page at a time and, inside a page, a line at a time. The table holds
// one pointer per 8 KiB page; a page is a 64-byte header of eight
// pointers to 1 KiB lines. A fresh Memory allocates only the table. A
// nil page or a nil line reads as zeros without allocating, which is
// exactly the semantics of zero-filled RAM.
//
// Why it matters: the exploration and measurement harnesses build
// thousands of disposable worlds, each with multi-MiB memories of which
// a handful of pages are ever touched. Eagerly allocating (and zeroing)
// the flat array dominated the whole simulator's host-CPU profile
// (~70% in memclr); lazy materialization cuts the fixed per-world cost
// to a small pointer table.
//
// Why lines: the workloads write a few words per page, not pages. A
// node of the hosted-machine cluster world writes 8-byte RPC tags into
// its request and response frames and two landing pages, plus DMA
// payloads of at most 80 B, about four pages per pass; ring
// descriptors are 64 B. Copying or zeroing the whole 8 KiB page on
// each such first write after a restore measured 96.5 of the 174 MB
// that six passes of that world allocate (55%), and 38% of the
// initiation loop's bytes. With 1 KiB lines the write copies the
// 64-byte page header once and one line; 512 B lines save only 6%
// more bytes and raise the peak heap.
const (
	pageShift = 13 // 8 KiB pages: one simulated page per table slot
	pageSize  = 1 << pageShift
	lineShift = 10 // 1 KiB lines: the unit of materialization and copy
	lineSize  = 1 << lineShift
	lineMask  = lineSize - 1
	pageLines = pageSize / lineSize
)

// line is one unit of backing store. Offsets past a short final page
// are never addressed: every access is checked against the memory's
// size first.
type line [lineSize]byte

// page is one table slot: its lines, nil where never written. The
// table holds a pointer per page, a third of a slice header, so a
// 4 MiB memory's table is 4 KiB.
type page [pageLines]*line

// pageOwned is the bit of an ownership word (Memory.own) that marks
// the page header as the memory's own; bit j marks line j.
const pageOwned = 1 << pageLines

// zeroLine is compared against, never written.
var zeroLine line

// Memory is a flat physical memory of fixed size. The zero value is not
// usable; construct with New. Memory is not safe for concurrent use: the
// simulator is single-threaded by design (determinism), so no locking is
// needed or wanted.
type Memory struct {
	size  int
	pages []*page // lazily allocated; a nil page or line reads as zeros
	// own is nil until the first Snapshot or Restore, while the memory
	// holds every page and line it points at. From then on own[i] has
	// pageOwned set when pages[i] is this memory's own header and bit
	// j when its line j is; a header or line without its bit is shared
	// with a snapshot and is copied before its first write.
	own []uint16
	ctr Counters
}

// New allocates a physical memory of size bytes, zero-filled. Size must
// be a positive multiple of 8 so that aligned 64-bit accesses cannot
// straddle the end. Backing storage is materialized lazily on first
// write, line by line.
func New(size int) *Memory {
	if size <= 0 || size%8 != 0 {
		panic(fmt.Sprintf("phys: invalid memory size %d", size))
	}
	nPages := (size + pageSize - 1) >> pageShift
	return &Memory{size: size, pages: make([]*page, nPages)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return m.size }

// lineRO returns the line containing addr for reading (nil means the
// line was never written: all zeros).
func (m *Memory) lineRO(addr Addr) []byte {
	if p := m.pages[addr>>pageShift]; p != nil {
		if l := p[addr>>lineShift&(pageLines-1)]; l != nil {
			return l[:]
		}
	}
	return nil
}

// lineRW returns the line containing addr, materializing it on first
// write. A page header shared with a snapshot is copied, with no line
// owned, on the first write to the page after Snapshot/Restore; a line
// shared with a snapshot is copied on the first write to it, and a nil
// line is allocated zeroed. Snapshot contents are therefore immutable,
// and worlds restored from the same snapshot never see each other's
// writes. Every mutating path (Write, WriteBytes, Move, Fill) funnels
// through here, which is what makes the ownership check a complete
// copy-on-write barrier.
func (m *Memory) lineRW(addr Addr) []byte {
	i, j := addr>>pageShift, addr>>lineShift&(pageLines-1)
	p := m.pages[i]
	if p != nil && p[j] != nil && (m.own == nil || m.own[i]&(pageOwned|1<<j) == pageOwned|1<<j) {
		return p[j][:]
	}
	if p == nil {
		p = new(page)
		m.pages[i] = p
		if m.own != nil {
			m.own[i] = pageOwned
		}
	} else if m.own != nil && m.own[i]&pageOwned == 0 {
		dup := *p
		p = &dup
		m.pages[i] = p
		m.own[i] = pageOwned
	}
	l := new(line)
	if p[j] != nil {
		*l = *p[j] // shared with a snapshot: copy before the write
	}
	p[j] = l
	if m.own != nil {
		m.own[i] |= 1 << j
	}
	return l[:]
}

// disown marks every page header and line shared: after it, any write
// copies what it touches first.
func (m *Memory) disown() {
	if m.own == nil {
		m.own = make([]uint16, len(m.pages))
	} else {
		clear(m.own)
	}
}

// Snapshot is an O(#pages) copy-on-write capture of a Memory's
// contents and access counters. The pages and lines it references are
// frozen: after Snapshot(), the first write to a captured page — by the
// original memory or by any memory restored from the snapshot — copies
// that page's header and the one line written. A snapshot can
// therefore back any number of worlds, including worlds running
// concurrently on different goroutines, which only read what they
// share, without copies of the untouched majority of RAM.
type Snapshot struct {
	size  int
	pages []*page
	ctr   Counters
}

// Snapshot captures the current contents. It marks every page and line
// shared in m, so m's subsequent writes cannot leak into the snapshot.
func (m *Memory) Snapshot() *Snapshot {
	m.disown()
	return &Snapshot{size: m.size, pages: slices.Clone(m.pages), ctr: m.ctr}
}

// Restore rewinds m to the snapshot's contents and counters, in
// O(#pages): it re-points the table at the snapshot's frozen pages and
// marks them shared. The snapshot must come from a memory of the same
// size.
func (m *Memory) Restore(s *Snapshot) error {
	if s.size != m.size {
		return &Error{Op: "restore", Addr: 0, Size: 0, Why: "snapshot is from a different-sized memory"}
	}
	copy(m.pages, s.pages)
	m.disown()
	m.ctr = s.ctr
	return nil
}

// Counters returns the access counters.
func (m *Memory) Counters() Counters { return m.ctr }

// RegisterMetrics publishes the memory's counters in a registry.
func (m *Memory) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("phys.reads", &m.ctr.Reads)
	r.RegisterCounter("phys.writes", &m.ctr.Writes)
	r.RegisterCounter("phys.bytes_read", &m.ctr.BytesRead)
	r.RegisterCounter("phys.bytes_wrote", &m.ctr.BytesWrote)
}

// Contains reports whether an access of the given size at addr lies
// entirely inside memory.
func (m *Memory) Contains(addr Addr, size AccessSize) bool {
	end := uint64(addr) + uint64(size)
	return uint64(addr) < uint64(m.size) && end <= uint64(m.size) && end >= uint64(size)
}

func (m *Memory) check(op string, addr Addr, size AccessSize) error {
	if !size.Valid() {
		return &Error{Op: op, Addr: addr, Size: size, Why: "unsupported access size"}
	}
	if uint64(addr)%uint64(size) != 0 {
		return &Error{Op: op, Addr: addr, Size: size, Why: "unaligned access"}
	}
	if !m.Contains(addr, size) {
		return &Error{Op: op, Addr: addr, Size: size, Why: "out of range"}
	}
	return nil
}

// Read returns size bytes at addr as a little-endian value (Alpha is
// little-endian). The access must be naturally aligned and in range.
func (m *Memory) Read(addr Addr, size AccessSize) (uint64, error) {
	if err := m.check("read", addr, size); err != nil {
		return 0, err
	}
	m.ctr.Reads.Inc()
	m.ctr.BytesRead.Add(uint64(size))
	c := m.lineRO(addr)
	if c == nil {
		return 0, nil // never-written line: zero-filled RAM
	}
	// A naturally aligned access of <= 8 bytes never straddles a line.
	b := c[addr&lineMask:]
	switch size {
	case Size8:
		return uint64(b[0]), nil
	case Size16:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case Size32:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	default:
		return binary.LittleEndian.Uint64(b), nil
	}
}

// Write stores the low size bytes of val at addr, little-endian. The
// access must be naturally aligned and in range.
func (m *Memory) Write(addr Addr, size AccessSize, val uint64) error {
	if err := m.check("write", addr, size); err != nil {
		return err
	}
	m.ctr.Writes.Inc()
	m.ctr.BytesWrote.Add(uint64(size))
	b := m.lineRW(addr)[addr&lineMask:]
	switch size {
	case Size8:
		b[0] = byte(val)
	case Size16:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case Size32:
		binary.LittleEndian.PutUint32(b, uint32(val))
	default:
		binary.LittleEndian.PutUint64(b, val)
	}
	return nil
}

// ReadBytes copies n bytes starting at addr into a fresh slice. Used by
// DMA transfer modelling, which moves arbitrary-length runs.
func (m *Memory) ReadBytes(addr Addr, n int) ([]byte, error) {
	if n < 0 || uint64(addr)+uint64(n) > uint64(m.size) || uint64(addr) > uint64(m.size) {
		return nil, &Error{Op: "read", Addr: addr, Size: AccessSize(n), Why: "byte range out of bounds"}
	}
	out := make([]byte, n)
	if err := m.ReadInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto copies len(dst) bytes starting at addr into dst without
// allocating. Never-written source lines read as zeros.
func (m *Memory) ReadInto(addr Addr, dst []byte) error {
	n := len(dst)
	if uint64(addr)+uint64(n) > uint64(m.size) || uint64(addr) > uint64(m.size) {
		return &Error{Op: "read", Addr: addr, Size: AccessSize(n), Why: "byte range out of bounds"}
	}
	for off := 0; off < n; {
		a := addr + Addr(off)
		span := lineSize - int(a&lineMask)
		if span > n-off {
			span = n - off
		}
		if c := m.lineRO(a); c != nil {
			copy(dst[off:off+span], c[a&lineMask:])
		} else {
			// Never-written line: the destination must read as zeros
			// even when dst is a dirty reused buffer.
			z := dst[off : off+span]
			for i := range z {
				z[i] = 0
			}
		}
		off += span
	}
	m.ctr.BytesRead.Add(uint64(n))
	return nil
}

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr Addr, b []byte) error {
	if uint64(addr)+uint64(len(b)) > uint64(m.size) || uint64(addr) > uint64(m.size) {
		return &Error{Op: "write", Addr: addr, Size: AccessSize(len(b)), Why: "byte range out of bounds"}
	}
	for off := 0; off < len(b); {
		a := addr + Addr(off)
		span := lineSize - int(a&lineMask)
		if span > len(b)-off {
			span = len(b) - off
		}
		// Zeros written to a never-written line leave it reading as
		// zeros: nothing to materialize (a DMA of an untouched page).
		if m.lineRO(a) != nil || !bytes.Equal(b[off:off+span], zeroLine[:span]) {
			copy(m.lineRW(a)[a&lineMask:], b[off:off+span])
		}
		off += span
	}
	m.ctr.BytesWrote.Add(uint64(len(b)))
	return nil
}

// Move copies n bytes from src to dst with memmove semantics: memory,
// counters and error end exactly as ReadInto(src) into a buffer
// followed by WriteBytes(dst) leave them, for any overlap, but the
// bytes go line to line with no buffer between. A never-written
// source over a never-written destination costs nothing; a
// never-written source over a written destination clears it.
func (m *Memory) Move(dst, src Addr, n int) error {
	if n < 0 || uint64(src)+uint64(n) > uint64(m.size) || uint64(src) > uint64(m.size) {
		return &Error{Op: "read", Addr: src, Size: AccessSize(n), Why: "byte range out of bounds"}
	}
	m.ctr.BytesRead.Add(uint64(n))
	if uint64(dst)+uint64(n) > uint64(m.size) || uint64(dst) > uint64(m.size) {
		return &Error{Op: "write", Addr: dst, Size: AccessSize(n), Why: "byte range out of bounds"}
	}
	if dst > src && dst < src+Addr(n) {
		// The destination overlaps the source's tail: copy from the end
		// so no source byte is overwritten before it is read.
		for end := n; end > 0; {
			span := min(end, int((src+Addr(end)-1)&lineMask)+1, int((dst+Addr(end)-1)&lineMask)+1)
			end -= span
			m.moveSpan(dst+Addr(end), src+Addr(end), span)
		}
	} else {
		for off := 0; off < n; {
			span := min(n-off, lineSize-int((src+Addr(off))&lineMask), lineSize-int((dst+Addr(off))&lineMask))
			m.moveSpan(dst+Addr(off), src+Addr(off), span)
			off += span
		}
	}
	m.ctr.BytesWrote.Add(uint64(n))
	return nil
}

// moveSpan copies n bytes that lie inside one source line and one
// destination line, materializing the destination only where
// WriteBytes would: when it is written already or the bytes are not
// all zero.
func (m *Memory) moveSpan(dst, src Addr, n int) {
	s := m.lineRO(src)
	switch {
	case s == nil && m.lineRO(dst) == nil:
	case s == nil:
		clear(m.lineRW(dst)[dst&lineMask:][:n])
	default:
		s = s[src&lineMask:][:n]
		if m.lineRO(dst) != nil || !bytes.Equal(s, zeroLine[:n]) {
			copy(m.lineRW(dst)[dst&lineMask:], s)
		}
	}
}

// Fill sets n bytes starting at addr to v. Convenience for tests and
// workload setup. Zero fills of never-written lines are free.
func (m *Memory) Fill(addr Addr, n int, v byte) error {
	if n < 0 || uint64(addr)+uint64(n) > uint64(m.size) || uint64(addr) > uint64(m.size) {
		return &Error{Op: "write", Addr: addr, Size: AccessSize(n), Why: "fill out of bounds"}
	}
	for off := 0; off < n; {
		a := addr + Addr(off)
		span := lineSize - int(a&lineMask)
		if span > n-off {
			span = n - off
		}
		if v == 0 && m.lineRO(a) == nil {
			off += span
			continue // never-written line is already zero
		}
		c := m.lineRW(a)[a&lineMask:]
		for i := 0; i < span; i++ {
			c[i] = v
		}
		off += span
	}
	m.ctr.BytesWrote.Add(uint64(n))
	return nil
}
