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

// Chunked backing store: physical memory is materialized lazily in
// chunkSize pieces. A fresh Memory allocates only a chunk-pointer table;
// chunks spring into existence on first write. Reads of never-written
// chunks return zeros without allocating, which is exactly the semantics
// of zero-filled RAM.
//
// Why it matters: the exploration and measurement harnesses build
// thousands of disposable worlds, each with multi-MiB memories of which
// a handful of pages are ever touched. Eagerly allocating (and zeroing)
// the flat array dominated the whole simulator's host-CPU profile
// (~70% in memclr); lazy chunks cut the fixed per-world cost to a
// small pointer table. Chunks are page-sized (8 KiB) so that the
// snapshot machinery's copy-on-write granularity matches the unit the
// workloads actually touch: restoring a world after a run re-shares
// whole chunks, and the first post-snapshot write to a page clones
// exactly that page.
const (
	chunkShift = 13 // 8 KiB chunks: one simulated page per chunk
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// chunk is one page of backing store. The table holds a pointer per
// chunk, a third of a slice header, so a 4 MiB memory's table is 4 KiB.
// Offsets past a short final chunk are never addressed: every access
// is checked against the memory's size first.
type chunk [chunkSize]byte

// zeroChunk is compared against, never written.
var zeroChunk chunk

// Memory is a flat physical memory of fixed size. The zero value is not
// usable; construct with New. Memory is not safe for concurrent use: the
// simulator is single-threaded by design (determinism), so no locking is
// needed or wanted.
type Memory struct {
	size   int
	chunks []*chunk // lazily allocated; nil chunk reads as zeros
	shared []bool   // chunk is owned by a snapshot: copy before write
	ctr    Counters
}

// New allocates a physical memory of size bytes, zero-filled. Size must
// be a positive multiple of 8 so that aligned 64-bit accesses cannot
// straddle the end. Backing storage is materialized lazily on first
// write, chunk by chunk.
func New(size int) *Memory {
	if size <= 0 || size%8 != 0 {
		panic(fmt.Sprintf("phys: invalid memory size %d", size))
	}
	nChunks := (size + chunkSize - 1) >> chunkShift
	return &Memory{size: size, chunks: make([]*chunk, nChunks)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return m.size }

// chunkRO returns the chunk containing addr for reading (nil means the
// chunk was never written: all zeros).
func (m *Memory) chunkRO(addr Addr) []byte {
	if c := m.chunks[addr>>chunkShift]; c != nil {
		return c[:]
	}
	return nil
}

// chunkRW returns the chunk containing addr, materializing it on first
// write. Chunks owned by a snapshot (copy-on-write) are cloned on the
// first write after Snapshot/Restore, so snapshot contents are immutable
// and worlds restored from the same snapshot never see each other's
// writes. Every mutating path (Write, WriteBytes, Move, Fill) funnels
// through here, which is what makes the single shared-flag check a
// complete COW barrier.
func (m *Memory) chunkRW(addr Addr) []byte {
	i := addr >> chunkShift
	c := m.chunks[i]
	if c == nil {
		c = new(chunk)
		m.chunks[i] = c
	} else if m.shared != nil && m.shared[i] {
		dup := *c
		c = &dup
		m.chunks[i] = c
		m.shared[i] = false
	}
	return c[:]
}

// Snapshot is an O(#materialized chunks) copy-on-write capture of a
// Memory's contents and access counters. The byte slices it references
// are frozen: after Snapshot(), the first write to a captured chunk —
// by the original memory or by any memory restored from the snapshot —
// clones that chunk first. A snapshot can therefore back any number of
// worlds, including worlds running concurrently on different
// goroutines, without copies of the untouched majority of RAM.
type Snapshot struct {
	size   int
	chunks []*chunk
	ctr    Counters
}

// Snapshot captures the current contents. It marks every materialized
// chunk copy-on-write in m, so m's subsequent writes cannot leak into
// the snapshot.
func (m *Memory) Snapshot() *Snapshot {
	if m.shared == nil {
		m.shared = make([]bool, len(m.chunks))
	}
	s := &Snapshot{size: m.size, chunks: make([]*chunk, len(m.chunks)), ctr: m.ctr}
	for i, c := range m.chunks {
		if c != nil {
			m.shared[i] = true
		}
		s.chunks[i] = c
	}
	return s
}

// Restore rewinds m to the snapshot's contents and counters, in
// O(#chunks): it re-points the chunk table at the snapshot's frozen
// chunks and re-marks them copy-on-write. The snapshot must come from a
// memory of the same size.
func (m *Memory) Restore(s *Snapshot) error {
	if s.size != m.size {
		return &Error{Op: "restore", Addr: 0, Size: 0, Why: "snapshot is from a different-sized memory"}
	}
	if m.shared == nil {
		m.shared = make([]bool, len(m.chunks))
	}
	for i, c := range s.chunks {
		m.chunks[i] = c
		m.shared[i] = c != nil
	}
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
	c := m.chunkRO(addr)
	if c == nil {
		return 0, nil // never-written chunk: zero-filled RAM
	}
	// A naturally aligned access of <= 8 bytes never straddles a chunk.
	b := c[addr&chunkMask:]
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
	b := m.chunkRW(addr)[addr&chunkMask:]
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
// allocating. Never-written source chunks read as zeros.
func (m *Memory) ReadInto(addr Addr, dst []byte) error {
	n := len(dst)
	if uint64(addr)+uint64(n) > uint64(m.size) || uint64(addr) > uint64(m.size) {
		return &Error{Op: "read", Addr: addr, Size: AccessSize(n), Why: "byte range out of bounds"}
	}
	for off := 0; off < n; {
		a := addr + Addr(off)
		span := chunkSize - int(a&chunkMask)
		if span > n-off {
			span = n - off
		}
		if c := m.chunkRO(a); c != nil {
			copy(dst[off:off+span], c[a&chunkMask:])
		} else {
			// Never-written chunk: the destination must read as zeros
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
		span := chunkSize - int(a&chunkMask)
		if span > len(b)-off {
			span = len(b) - off
		}
		// Zeros written to a never-written chunk leave it reading as
		// zeros: nothing to materialize (a DMA of an untouched page).
		if m.chunks[a>>chunkShift] != nil || !bytes.Equal(b[off:off+span], zeroChunk[:span]) {
			copy(m.chunkRW(a)[a&chunkMask:], b[off:off+span])
		}
		off += span
	}
	m.ctr.BytesWrote.Add(uint64(len(b)))
	return nil
}

// Move copies n bytes from src to dst with memmove semantics: memory,
// counters and error end exactly as ReadInto(src) into a buffer
// followed by WriteBytes(dst) leave them, for any overlap, but the
// bytes go chunk to chunk with no buffer between. A never-written
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
			span := min(end, int((src+Addr(end)-1)&chunkMask)+1, int((dst+Addr(end)-1)&chunkMask)+1)
			end -= span
			m.moveSpan(dst+Addr(end), src+Addr(end), span)
		}
	} else {
		for off := 0; off < n; {
			span := min(n-off, chunkSize-int((src+Addr(off))&chunkMask), chunkSize-int((dst+Addr(off))&chunkMask))
			m.moveSpan(dst+Addr(off), src+Addr(off), span)
			off += span
		}
	}
	m.ctr.BytesWrote.Add(uint64(n))
	return nil
}

// moveSpan copies n bytes that lie inside one source chunk and one
// destination chunk, materializing the destination only where
// WriteBytes would: when it is written already or the bytes are not
// all zero.
func (m *Memory) moveSpan(dst, src Addr, n int) {
	s := m.chunkRO(src)
	switch {
	case s == nil && m.chunkRO(dst) == nil:
	case s == nil:
		clear(m.chunkRW(dst)[dst&chunkMask:][:n])
	default:
		s = s[src&chunkMask:][:n]
		if m.chunkRO(dst) != nil || !bytes.Equal(s, zeroChunk[:n]) {
			copy(m.chunkRW(dst)[dst&chunkMask:], s)
		}
	}
}

// Fill sets n bytes starting at addr to v. Convenience for tests and
// workload setup. Zero fills of never-written chunks are free.
func (m *Memory) Fill(addr Addr, n int, v byte) error {
	if uint64(addr)+uint64(n) > uint64(m.size) || n < 0 {
		return &Error{Op: "write", Addr: addr, Size: AccessSize(n), Why: "fill out of bounds"}
	}
	for off := 0; off < n; {
		a := addr + Addr(off)
		span := chunkSize - int(a&chunkMask)
		if span > n-off {
			span = n - off
		}
		if v == 0 && m.chunkRO(a) == nil {
			off += span
			continue // never-written chunk is already zero
		}
		c := m.chunkRW(a)[a&chunkMask:]
		for i := 0; i < span; i++ {
			c[i] = v
		}
		off += span
	}
	m.ctr.BytesWrote.Add(uint64(n))
	return nil
}
