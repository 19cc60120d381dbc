package net

import (
	"bytes"
	"testing"

	"uldma/internal/phys"
)

// TestSameTickDeliveryOrder pins the fabric's tie-break rule (see
// Fabric.Deliver): when two messages into the same node compute the
// SAME arrival tick, they land in fabric issue order — the shared event
// queue breaks equal-time ties by schedule sequence. The test makes
// both messages target the same byte, so whichever lands second is
// visible afterwards.
func TestSameTickDeliveryOrder(t *testing.T) {
	const addr = phys.Addr(0x80000)
	land := func(payloads ...[]byte) byte {
		t.Helper()
		c := MustNewCluster(2, clusterCfg(), Gigabit())
		for _, p := range payloads {
			// Same send instant + same length = same computed arrival.
			if err := c.Fabric.Deliver(1, addr, p, 0); err != nil {
				t.Fatal(err)
			}
		}
		c.Settle()
		v, err := c.Nodes[1].Mem.Read(addr, phys.Size8)
		if err != nil {
			t.Fatal(err)
		}
		return byte(v)
	}
	if got := land([]byte{0xaa}, []byte{0xbb}); got != 0xbb {
		t.Fatalf("equal-tick deliveries landed out of issue order: final byte %#x, want 0xbb", got)
	}
	if got := land([]byte{0xbb}, []byte{0xaa}); got != 0xaa {
		t.Fatalf("equal-tick deliveries landed out of issue order: final byte %#x, want 0xaa", got)
	}

	// FIFO-floor variant: a long message followed by a short one whose
	// raw arrival would be EARLIER. The per-destination floor lifts the
	// short message onto the long one's arrival tick, and the tie then
	// resolves in issue order — the short message lands second.
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	long := bytes.Repeat([]byte{0x11}, 4096)
	if err := c.Fabric.Deliver(1, addr, long, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Fabric.Deliver(1, addr, []byte{0x22}, 0); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	v, err := c.Nodes[1].Mem.Read(addr, phys.Size8)
	if err != nil {
		t.Fatal(err)
	}
	if byte(v) != 0x22 {
		t.Fatalf("floor-lifted short message did not land after the long one: final byte %#x", v)
	}
}

// TestFabricDeliveryZeroAllocs pins the pooled delivery path: once the
// record pool and FIFO map are warm, shipping a payload through the
// fabric and landing it allocates nothing on the host.
func TestFabricDeliveryZeroAllocs(t *testing.T) {
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	payload := bytes.Repeat([]byte{0x5a}, 64)
	ship := func() {
		if err := c.Fabric.Deliver(1, 0x80000, payload, c.Clock.Now()); err != nil {
			t.Fatal(err)
		}
		c.Settle()
	}
	for i := 0; i < 8; i++ {
		ship() // warm the delivery pool, event-queue free list, FIFO map
	}
	if avg := testing.AllocsPerRun(200, ship); avg > 0 {
		t.Fatalf("fabric delivery allocates %.2f times per payload, want 0", avg)
	}
	if c.Fabric.Counters().Delivered == 0 {
		t.Fatal("no deliveries landed")
	}
}
