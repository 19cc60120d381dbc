package dma

import (
	"testing"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// shadowStart initiates a transfer through shadow context 0 at now and
// fails the test on a refusal.
func (f *engFixture) shadowStart(t *testing.T, now sim.Time, src, dst phys.Addr, size uint64) {
	t.Helper()
	f.e.Store(now, f.e.cfg.Shadow(dst, 0), phys.Size64, size)
	if st, _, _ := f.e.Load(now, f.e.cfg.Shadow(src, 0), phys.Size64); st == StatusFailure {
		t.Fatalf("transfer %v->%v[%d] refused", src, dst, size)
	}
}

// TestPoolHoldsRecordsUntilDelivered: back-to-back transfers displace
// each other from e.last long before their bursts and ships land, and
// the next acceptances reuse pooled records. A record recycled on
// displacement alone would be handed to a later transfer while its own
// delivery events are still queued; every payload must instead land
// whole, exactly once.
func TestPoolHoldsRecordsUntilDelivered(t *testing.T) {
	f := newEngine(t, ModeExtended, nil)
	rh := &fakeRemote{}
	f.e.SetRemoteHandler(rh)
	const size = 3 * transferChunk
	srcs := []phys.Addr{0x10000, 0x20000, 0x30000}
	for i, src := range srcs {
		f.fillSrc(src, size, byte(0x10*(i+1)))
	}
	// Warm the pool, then run three rounds of three local transfers plus
	// one remote ship and one zero-length transfer, all accepted at once.
	f.shadowStart(t, 0, srcs[0], 0x80000, 0)
	now := f.settle()
	remote := remoteBase + phys.Addr(5<<20)
	for round := 0; round < 3; round++ {
		for i, src := range srcs {
			f.shadowStart(t, now, src, phys.Addr(0x80000+i*0x10000), size)
		}
		f.shadowStart(t, now, srcs[round], remote, 64)
		f.shadowStart(t, now, srcs[0], 0x80000, 0)
		now = f.settle()
		for i := range srcs {
			f.expectMoved(t, phys.Addr(0x80000+i*0x10000), size, byte(0x10*(i+1)))
		}
		if rh.n != round+1 || len(rh.data) != 64 || rh.data[0] != byte(0x10*(round+1)) {
			t.Fatalf("round %d: remote delivery %d of %d bytes starting %#x", round, rh.n, len(rh.data), rh.data[0])
		}
	}
	c := f.e.Counters()
	if c.Started.Value() != 16 || c.Completed.Value() != 16 {
		t.Fatalf("started %d, completed %d, want 16 each", c.Started.Value(), c.Completed.Value())
	}
	if want := uint64(3 * (3*size + 64)); c.BytesMoved.Value() != want {
		t.Fatalf("moved %d bytes, want %d", c.BytesMoved.Value(), want)
	}
	if err := f.e.CheckInvariants(now); err != nil {
		t.Fatal(err)
	}
	// A round keeps five records in flight, so five records served all
	// 16 transfers; only the one live as e.last and its context's cur
	// is out of the pool.
	if n := len(f.e.freeT); n != 4 {
		t.Fatalf("%d records pooled after the run, want 4", n)
	}
}
