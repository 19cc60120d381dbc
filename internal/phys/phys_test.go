package phys

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, size := range []int{0, -8, 7, 13} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", size)
				}
			}()
			New(size)
		}()
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(4096)
	cases := []struct {
		addr Addr
		size AccessSize
		val  uint64
	}{
		{0, Size8, 0xab},
		{1, Size8, 0xff},
		{2, Size16, 0xbeef},
		{4, Size32, 0xdeadbeef},
		{8, Size64, 0x0123456789abcdef},
		{4088, Size64, ^uint64(0)},
	}
	for _, c := range cases {
		if err := m.Write(c.addr, c.size, c.val); err != nil {
			t.Fatalf("Write(%v, %d, %#x): %v", c.addr, c.size, c.val, err)
		}
		got, err := m.Read(c.addr, c.size)
		if err != nil {
			t.Fatalf("Read(%v, %d): %v", c.addr, c.size, err)
		}
		if got != c.val {
			t.Errorf("round trip at %v size %d: got %#x want %#x", c.addr, c.size, got, c.val)
		}
	}
}

func TestWriteTruncatesToSize(t *testing.T) {
	m := New(64)
	if err := m.Write(0, Size8, 0x1234); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0, Size8)
	if got != 0x34 {
		t.Fatalf("8-bit write stored %#x, want 0x34", got)
	}
	// Neighbouring byte untouched.
	if v, _ := m.Read(1, Size8); v != 0 {
		t.Fatalf("neighbouring byte dirtied: %#x", v)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New(64)
	if err := m.Write(0, Size32, 0x11223344); err != nil {
		t.Fatal(err)
	}
	b, err := m.ReadBytes(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte{0x44, 0x33, 0x22, 0x11}) {
		t.Fatalf("layout = % x, want little-endian", b)
	}
}

func TestAccessErrors(t *testing.T) {
	m := New(64)
	tests := []struct {
		name string
		err  error
		want string
	}{
		{"unaligned16", m.Write(1, Size16, 0), "unaligned"},
		{"unaligned64", m.Write(4, Size64, 0), "unaligned"},
		{"oob write", m.Write(64, Size8, 0), "out of range"},
		{"badsize", m.Write(0, 3, 0), "unsupported"},
	}
	if _, err := m.Read(56, Size64); err != nil {
		t.Errorf("last aligned word read failed: %v", err)
	}
	m2 := New(64 - 8 + 8) // 64 bytes; straddle test uses aligned addr past end
	if _, err := m2.Read(64, Size64); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("straddling read: err = %v", err)
	}
	for _, c := range tests {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, c.err, c.want)
		}
	}
}

func TestByteRangeOps(t *testing.T) {
	m := New(256)
	src := []byte("user-level DMA without kernel modification")
	if err := m.WriteBytes(10, src); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(10, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("ReadBytes = %q, want %q", got, src)
	}
	if err := m.WriteBytes(250, make([]byte, 10)); err == nil {
		t.Fatal("WriteBytes past end did not error")
	}
	if _, err := m.ReadBytes(250, 10); err == nil {
		t.Fatal("ReadBytes past end did not error")
	}
	if _, err := m.ReadBytes(0, -1); err == nil {
		t.Fatal("negative ReadBytes did not error")
	}
}

func TestFill(t *testing.T) {
	m := New(64)
	if err := m.Fill(8, 16, 0xee); err != nil {
		t.Fatal(err)
	}
	b, _ := m.ReadBytes(8, 16)
	for _, v := range b {
		if v != 0xee {
			t.Fatalf("Fill left byte %#x", v)
		}
	}
	if v, _ := m.Read(7, Size8); v != 0 {
		t.Fatal("Fill dirtied preceding byte")
	}
	if v, _ := m.Read(24, Size8); v != 0 {
		t.Fatal("Fill dirtied following byte")
	}
	if err := m.Fill(60, 16, 1); err == nil {
		t.Fatal("out-of-bounds Fill did not error")
	}
	// A range that wraps past 2^64 ends inside memory; it must be
	// refused, not indexed.
	if err := New(16384).Fill(^Addr(7), 16, 1); err == nil {
		t.Fatal("a Fill wrapping past 2^64 did not error")
	}
}

func TestStats(t *testing.T) {
	m := New(64)
	m.Write(0, Size64, 1)
	m.Write(8, Size32, 1)
	m.Read(0, Size64)
	s := m.Counters()
	if s.Writes != 2 || s.Reads != 1 || s.BytesWrote != 12 || s.BytesRead != 8 {
		t.Fatalf("counters = %+v", s)
	}
}

// Property: a write followed by a read at the same (addr, size) returns
// the value truncated to the access width, for all aligned in-range pairs.
func TestReadAfterWriteProperty(t *testing.T) {
	m := New(1 << 12)
	sizes := []AccessSize{Size8, Size16, Size32, Size64}
	err := quick.Check(func(rawAddr uint16, sizeIdx uint8, val uint64) bool {
		size := sizes[int(sizeIdx)%len(sizes)]
		addr := Addr(rawAddr) % Addr(m.Size()-8)
		addr -= addr % Addr(size) // align
		if err := m.Write(addr, size, val); err != nil {
			return false
		}
		got, err := m.Read(addr, size)
		if err != nil {
			return false
		}
		mask := ^uint64(0)
		if size != Size64 {
			mask = (uint64(1) << (8 * uint(size))) - 1
		}
		return got == val&mask
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteZerosToUntouchedChunk: zeros written to a never-written
// line materialize nothing (the line already reads as zeros), also
// when its page holds other lines, while zeros written over data still
// clear it.
func TestWriteZerosToUntouchedChunk(t *testing.T) {
	m := New(4 * pageSize)
	if err := m.Write(pageSize+3*lineSize, Size64, 7); err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, pageSize+16)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := m.WriteBytes(pageSize-8, zeros); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("zero write to untouched lines allocated %.1f times", allocs)
	}
	if m.pages[0] != nil || m.pages[2] != nil {
		t.Fatal("a zero write materialized a page")
	}
	for j, l := range m.pages[1] {
		if (l != nil) != (j == 3) {
			t.Fatalf("after a zero write, line %d of page 1 is materialized %v", j, l != nil)
		}
	}
	if err := m.WriteBytes(pageSize, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(pageSize-8, zeros); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(pageSize-8, len(zeros))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, zeros) {
		t.Fatal("zeros written over data did not clear it")
	}
	if c := m.Counters(); c.BytesWrote.Value() != uint64(8+3+12*len(zeros)) {
		t.Fatalf("BytesWrote = %d, want every written byte counted", c.BytesWrote)
	}
}
