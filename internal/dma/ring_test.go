package dma

import (
	"testing"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// Ring fixture layout: the doorbell window sits clear of every other
// engine window, the descriptor array and the data buffers live in
// local memory on page boundaries.
const (
	ringBase    = phys.Addr(0x2200_0000)
	ringDescs   = phys.Addr(0x10000)
	ringSrc     = phys.Addr(0x20000)
	ringDst     = phys.Addr(0x30000)
	ringBufSize = uint64(testPageSize)
)

func newRingEngine(tb testing.TB, mode Mode) *engFixture {
	tb.Helper()
	cfg := testConfig(mode)
	cfg.RingBase = ringBase
	mem := phys.New(testMemSize)
	events := new(sim.EventQueue)
	e, err := New(cfg, events, mem)
	if err != nil {
		tb.Fatal(err)
	}
	return &engFixture{e: e, mem: mem, events: events}
}

// newVARingEngine is newRingEngine with an IOMMU attached (va_test.go's
// fixture).
func newVARingEngine(tb testing.TB, mode Mode) *vaFixture {
	tb.Helper()
	return newVAEngine(tb, mode, func(c *Config) { c.RingBase = ringBase })
}

// armRing installs a depth-slot ring on context 0 with the src and dst
// test buffers registered.
func armRing(t *testing.T, f *engFixture, depth uint64) {
	t.Helper()
	if err := f.e.SetupRing(0, ringDescs, depth); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []phys.Addr{ringSrc, ringDst} {
		if err := f.e.RingAllow(0, ext, ringBufSize); err != nil {
			t.Fatal(err)
		}
	}
}

// ringPending marks a descriptor "posted, not yet completed" in its
// status slot. The engine never reads the status word (the doorbell
// count alone says how many slots to walk); it only overwrites it with
// the completion record, so a status still holding ringPending shows
// the engine has not walked that slot.
const ringPending = ^uint64(2)

// post writes one descriptor into slot (cached-store side of the
// protocol: plain memory writes, the engine only sees the doorbell).
func post(t *testing.T, f *engFixture, slot uint64, src, dst phys.Addr, size uint64) {
	t.Helper()
	base := ringDescs + phys.Addr(slot*DescBytes)
	for _, w := range []struct {
		off uint64
		val uint64
	}{
		{DescSrc, uint64(src)},
		{DescDst, uint64(dst)},
		{DescSize, size},
		{DescStatus, ringPending},
	} {
		if err := f.mem.Write(base+phys.Addr(w.off), phys.Size64, w.val); err != nil {
			t.Fatal(err)
		}
	}
}

func doorbell(t *testing.T, f *engFixture, now sim.Time, val uint64) {
	t.Helper()
	if _, err := f.e.Store(now, ringBase, phys.Size64, val); err != nil {
		t.Fatal(err)
	}
}

func completion(t *testing.T, f *engFixture, slot uint64) (status, stamp uint64) {
	t.Helper()
	base := ringDescs + phys.Addr(slot*DescBytes)
	status, err := f.mem.Read(base+DescStatus, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	stamp, err = f.mem.Read(base+DescStamp, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	return status, stamp
}

func TestRingSetupValidation(t *testing.T) {
	f := newRingEngine(t, ModePaired)
	cases := []struct {
		name  string
		ctx   int
		base  phys.Addr
		depth uint64
	}{
		{"ctx negative", -1, ringDescs, 8},
		{"ctx out of range", 99, ringDescs, 8},
		{"zero depth", 0, ringDescs, 0},
		{"depth too deep", 0, ringDescs, f.e.Config().RingMaxDepth() + 1},
		{"unaligned base", 0, ringDescs + 8, 8},
		{"base outside memory", 0, phys.Addr(testMemSize), 8},
	}
	for _, tc := range cases {
		if err := f.e.SetupRing(tc.ctx, tc.base, tc.depth); err == nil {
			t.Errorf("%s: SetupRing accepted", tc.name)
		}
	}
	// No ring window configured at all.
	bare := newEngine(t, ModePaired, nil)
	if err := bare.e.SetupRing(0, ringDescs, 8); err == nil {
		t.Error("SetupRing succeeded with RingBase unset")
	}
	// RingAllow needs an installed ring and in-memory extents.
	if err := f.e.RingAllow(0, ringSrc, ringBufSize); err == nil {
		t.Error("RingAllow succeeded before SetupRing")
	}
	armRing(t, f, 8)
	if err := f.e.RingAllow(0, ringSrc, 0); err == nil {
		t.Error("RingAllow accepted a zero-size extent")
	}
	if err := f.e.RingAllow(0, phys.Addr(testMemSize-16), 64); err == nil {
		t.Error("RingAllow accepted an extent past memory")
	}
}

// TestRingDoorbellWalksChain is the basic contract: one doorbell store
// kicks N transfers, the data moves, and every slot gets a completion
// record with an ascending simulated timestamp.
func TestRingDoorbellWalksChain(t *testing.T) {
	f := newRingEngine(t, ModePaired)
	armRing(t, f, 8)
	const n, size = 4, 512
	for slot := uint64(0); slot < n; slot++ {
		f.fillSrc(ringSrc+phys.Addr(slot*size), size, byte(0x40+slot))
		post(t, f, slot, ringSrc+phys.Addr(slot*size), ringDst+phys.Addr(slot*size), size)
	}
	doorbell(t, f, 0, n)
	f.settle()

	var prev uint64
	for slot := uint64(0); slot < n; slot++ {
		f.expectMoved(t, ringDst+phys.Addr(slot*size), size, byte(0x40+slot))
		status, stamp := completion(t, f, slot)
		if status != 0 {
			t.Errorf("slot %d: status %#x, want success", slot, status)
		}
		if stamp <= prev {
			t.Errorf("slot %d: stamp %d not after slot %d's %d", slot, stamp, slot-1, prev)
		}
		prev = stamp
	}
	s := f.e.Counters()
	if s.RingDoorbells != 1 || s.RingPosted != n || s.RingCompletions != n {
		t.Errorf("counters = doorbells %d posted %d completions %d, want 1/%d/%d",
			s.RingDoorbells, s.RingPosted, s.RingCompletions, n, n)
	}
	if _, _, _, inFlight := f.e.RingState(0); inFlight != 0 {
		t.Errorf("inFlight = %d after settle, want 0", inFlight)
	}
}

// TestRingHeadWrap posts more descriptors than the ring has slots,
// across two doorbells, and checks the head cursor wraps.
func TestRingHeadWrap(t *testing.T) {
	f := newRingEngine(t, ModePaired)
	armRing(t, f, 4)
	for _, batch := range []uint64{3, 3} {
		for i := uint64(0); i < batch; i++ {
			_, _, head, _ := f.e.RingState(0)
			post(t, f, (head+i)%4, ringSrc, ringDst, 0)
		}
		doorbell(t, f, 0, batch)
		f.settle()
	}
	if _, _, head, _ := f.e.RingState(0); head != 2 {
		t.Errorf("head = %d after 6 posts on a depth-4 ring, want 2", head)
	}
	if s := f.e.Counters(); s.RingPosted != 6 || s.RingCompletions != 6 {
		t.Errorf("posted %d completions %d, want 6/6", s.RingPosted, s.RingCompletions)
	}
}

// TestRingRejectsUnregistered pins the protection contract: a
// descriptor naming an address outside the registered extents gets a
// DMA_FAILURE completion record and moves no data — also on an engine
// with an IOMMU attached, whose rings are checked against the same
// extents.
func TestRingRejectsUnregistered(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *engFixture
	}{
		{"plain", newRingEngine(t, ModePaired)},
		{"iommu", newVARingEngine(t, ModePaired).engFixture},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.f
			armRing(t, f, 8)
			forged := phys.Addr(0x50000) // valid memory, never registered
			f.fillSrc(forged, 64, 0xEE)
			post(t, f, 0, forged, ringDst, 64)
			doorbell(t, f, 0, 1)
			f.settle()

			status, _ := completion(t, f, 0)
			if status != StatusFailure {
				t.Errorf("status = %#x, want DMA_FAILURE", status)
			}
			got, err := f.mem.Read(ringDst, phys.Size64)
			if err != nil {
				t.Fatal(err)
			}
			if got != 0 {
				t.Errorf("destination written (%#x) despite rejection", got)
			}
			if s := f.e.Counters(); s.Rejected == 0 || s.RingCompletions != 1 {
				t.Errorf("rejected %d completions %d, want >0/1", s.Rejected, s.RingCompletions)
			}
		})
	}
}

// TestRingKeyedDoorbell pins the amortized key check: in keyed mode the
// doorbell word carries key<<KeyShift|count, checked once per batch; a
// wrong or revoked key drops the whole batch silently.
func TestRingKeyedDoorbell(t *testing.T) {
	f := newRingEngine(t, ModeKeyed)
	armRing(t, f, 8)
	const key = 7
	if err := f.e.SetKey(0, key); err != nil {
		t.Fatal(err)
	}
	post(t, f, 0, ringSrc, ringDst, 0)
	post(t, f, 1, ringSrc, ringDst, 0)

	doorbell(t, f, 0, uint64(key+1)<<KeyShift|2) // forged key
	f.settle()
	if s := f.e.Counters(); s.KeyMismatches != 1 || s.RingPosted != 0 {
		t.Fatalf("forged key: mismatches %d posted %d, want 1/0", s.KeyMismatches, s.RingPosted)
	}
	if status, _ := completion(t, f, 0); status != ringPending {
		t.Fatalf("forged doorbell walked the ring: status %#x", status)
	}

	doorbell(t, f, 0, uint64(key)<<KeyShift|2) // good key, whole batch
	f.settle()
	if s := f.e.Counters(); s.RingPosted != 2 || s.RingCompletions != 2 {
		t.Fatalf("good key: posted %d completions %d, want 2/2", s.RingPosted, s.RingCompletions)
	}
}

// TestRingTeardownMidFlight re-arms the ring while a transfer is still
// streaming: the old completion record still lands (the engine owns the
// accepted transfer) but the new ring's bookkeeping is untouched, and a
// doorbell against a torn-down ring is rejected.
func TestRingTeardownMidFlight(t *testing.T) {
	f := newRingEngine(t, ModePaired)
	armRing(t, f, 8)
	f.fillSrc(ringSrc, 1024, 0xAB)
	post(t, f, 0, ringSrc, ringDst, 1024)
	doorbell(t, f, 0, 1)

	// Re-arm before the completion event fires.
	armRing(t, f, 8)
	if _, _, _, inFlight := f.e.RingState(0); inFlight != 0 {
		t.Fatalf("re-armed ring starts with inFlight %d", inFlight)
	}
	f.settle()
	status, stamp := completion(t, f, 0)
	if status != 0 || stamp == 0 {
		t.Errorf("stale completion record = %#x @%d, want success with stamp", status, stamp)
	}
	if _, _, _, inFlight := f.e.RingState(0); inFlight != 0 {
		t.Errorf("stale completion decremented the new ring: inFlight %d", inFlight)
	}

	f.e.TeardownRing(0)
	before := f.e.Counters().Rejected
	doorbell(t, f, 0, 1)
	if got := f.e.Counters().Rejected; got != before+1 {
		t.Errorf("doorbell on torn-down ring: rejected %d, want %d", got, before+1)
	}
}

// TestRingInFlightLoad pins the doorbell page's read side: one uncached
// load answers "has my whole batch completed?".
func TestRingInFlightLoad(t *testing.T) {
	f := newRingEngine(t, ModePaired)
	armRing(t, f, 8)
	f.fillSrc(ringSrc, 256, 0x11)
	for slot := uint64(0); slot < 3; slot++ {
		post(t, f, slot, ringSrc, ringDst+phys.Addr(slot*256), 256)
	}
	doorbell(t, f, 0, 3)
	got, _, err := f.e.Load(0, ringBase, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("in-flight load = %d right after doorbell, want 3", got)
	}
	f.settle()
	if got, _, _ = f.e.Load(0, ringBase, phys.Size64); got != 0 {
		t.Errorf("in-flight load = %d after settle, want 0", got)
	}
}

// TestRingZeroSizeCompletesOnce: on a plain engine and on one with an
// IOMMU attached, a zero-size descriptor's completion record is also
// its finish event, so the transfer completes exactly once — one
// Completed tick, one completion record, nothing left in flight.
func TestRingZeroSizeCompletesOnce(t *testing.T) {
	pf := newRingEngine(t, ModePaired)
	armRing(t, pf, 8)
	va := newVARingEngine(t, ModePaired)
	armRing(t, va.engFixture, 8)
	for _, tc := range []struct {
		name string
		f    *engFixture
	}{
		{"physical", pf},
		{"iommu", va.engFixture},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.f
			before := f.e.Counters()
			post(t, f, 0, ringSrc, ringDst, 0)
			doorbell(t, f, 0, 1)
			f.settle()
			after := f.e.Counters()
			if got := after.Completed.Value() - before.Completed.Value(); got != 1 {
				t.Errorf("Completed rose by %d, want 1", got)
			}
			if got := after.RingCompletions.Value() - before.RingCompletions.Value(); got != 1 {
				t.Errorf("%d completion records written, want 1", got)
			}
			if status, _ := completion(t, f, 0); status != 0 {
				t.Errorf("completion status %#x, want 0", status)
			}
			if _, _, _, inFlight := f.e.RingState(0); inFlight != 0 {
				t.Errorf("inFlight = %d after settle, want 0", inFlight)
			}
		})
	}
}

// ringBatch drives one full doorbell->walk->completion cycle: post
// depth zero-size descriptors, one doorbell store, drain the completion
// events. Zero-size isolates the ring machinery itself from payload
// streaming.
func ringBatch(f *engFixture, now sim.Time, depth uint64) sim.Time {
	for slot := uint64(0); slot < depth; slot++ {
		base := ringDescs + phys.Addr(slot%8*DescBytes)
		_ = f.mem.Write(base+DescSrc, phys.Size64, uint64(ringSrc))
		_ = f.mem.Write(base+DescDst, phys.Size64, uint64(ringDst))
		_ = f.mem.Write(base+DescSize, phys.Size64, 0)
	}
	if _, err := f.e.Store(now, ringBase, phys.Size64, depth); err != nil {
		panic(err)
	}
	return f.events.Drain(0)
}

// TestRingDoorbellZeroAllocs is the satellite pin: with pooled Transfer
// records, each carrying its prebuilt completion method value, the
// steady-state doorbell->walk->completion path allocates nothing.
func TestRingDoorbellZeroAllocs(t *testing.T) {
	f := newRingEngine(t, ModePaired)
	armRing(t, f, 8)
	now := sim.Time(0)
	for i := 0; i < 4; i++ { // warm the pools
		now = ringBatch(f, now, 8)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		now = ringBatch(f, now, 8)
	})
	if allocs > 0 {
		t.Fatalf("doorbell->walk->completion allocates %.1f/op, want 0", allocs)
	}
	if s := f.e.Counters(); s.RingCompletions != s.RingPosted {
		t.Fatalf("completions %d != posted %d", s.RingCompletions, s.RingPosted)
	}
}

// BenchmarkRingDoorbell measures the engine-side cost of one batched
// kick: 8 descriptors per doorbell, completions drained each batch.
func BenchmarkRingDoorbell(b *testing.B) {
	f := newRingEngine(b, ModePaired)
	if err := f.e.SetupRing(0, ringDescs, 8); err != nil {
		b.Fatal(err)
	}
	if err := f.e.RingAllow(0, ringSrc, ringBufSize); err != nil {
		b.Fatal(err)
	}
	if err := f.e.RingAllow(0, ringDst, ringBufSize); err != nil {
		b.Fatal(err)
	}
	now := sim.Time(0)
	for i := 0; i < 4; i++ {
		now = ringBatch(f, now, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = ringBatch(f, now, 8)
	}
}
