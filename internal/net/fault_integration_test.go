// Integration tests that attach internal/fault planes to the fabric.
// They live in package net_test: fault imports net, so importing fault
// from net's internal tests would cycle.
package net_test

import (
	"testing"

	"uldma/internal/dma"
	"uldma/internal/fault"
	"uldma/internal/machine"
	"uldma/internal/net"
	"uldma/internal/phys"
	"uldma/internal/sim"
)

func cfg() machine.Config { return machine.Alpha3000TC(dma.ModeExtended, 0) }

// driveSchedule pushes a fixed, deterministic payload schedule through
// the fabric: varying sizes, two destinations, distinct byte patterns.
func driveSchedule(t *testing.T, c *net.Cluster, rounds int) {
	t.Helper()
	buf := make([]byte, 512)
	for i := 0; i < rounds; i++ {
		n := 16 + (i%7)*64
		for k := 0; k < n; k++ {
			buf[k] = byte(i + k)
		}
		dst := i % len(c.Nodes)
		addr := phys.Addr(0x80000 + (i%13)*0x400)
		if err := c.Fabric.Deliver(dst, addr, buf[:n], c.Clock.Now()); err != nil {
			t.Fatal(err)
		}
		c.Clock.Advance(3 * sim.Microsecond)
	}
	c.Settle()
}

// memSum hashes the delivery region of every node's memory.
func memSum(t *testing.T, c *net.Cluster) uint64 {
	t.Helper()
	h := uint64(0xcbf29ce484222325)
	buf := make([]byte, 0x400*16)
	for _, m := range c.Nodes {
		if err := m.Mem.ReadInto(0x80000, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			h ^= uint64(b)
			h *= 0x100000001b3
		}
	}
	return h
}

// TestZeroFaultPlaneByteIdentity: a fabric carrying a zero-fault plane
// is bit-for-bit identical to a fabric with no plane at all — same
// memory contents, same counters, same settle time. This is the
// pay-for-what-you-use contract that keeps every pre-fault golden
// byte-identical when the hook is compiled in.
func TestZeroFaultPlaneByteIdentity(t *testing.T) {
	bare := net.MustNewCluster(2, cfg(), net.Gigabit())
	zeroed := net.MustNewCluster(2, cfg(), net.Gigabit())
	zeroed.Fabric.SetFaultPlane(fault.New(fault.Plan{}, 12345))

	driveSchedule(t, bare, 50)
	driveSchedule(t, zeroed, 50)

	if a, b := bare.Fabric.Counters(), zeroed.Fabric.Counters(); a != b {
		t.Fatalf("stats differ with a zero plane attached:\n bare %+v\n zero %+v", a, b)
	}
	if a, b := memSum(t, bare), memSum(t, zeroed); a != b {
		t.Fatalf("memory differs with a zero plane attached: %#x vs %#x", a, b)
	}
	if a, b := bare.Clock.Now(), zeroed.Clock.Now(); a != b {
		t.Fatalf("settle time differs with a zero plane attached: %v vs %v", a, b)
	}
}
