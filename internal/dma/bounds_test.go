package dma

import (
	"testing"

	"uldma/internal/phys"
)

// The transfer size is guest data: the paired store's value, the
// mapped-out exchange's operand, a descriptor's size word. Sizes within
// 4 KiB of 2^64 make addr+size wrap to a small in-bounds value; they
// stay that close so that an engine missing the wrap check still
// schedules zero delivery chunks.
const (
	wrapSize = uint64(0xffff_ffff_ffff_f0ff) // 0x1000+wrapSize wraps to 0xff
	hugeWrap = uint64(0xffff_ffff_ffff_8000) // only ever handed to the validators
)

// TestInitiationSizeWrapRejected: a wrapping size is rejected on every
// paired-style initiation path, local or remote, and nothing starts.
func TestInitiationSizeWrapRejected(t *testing.T) {
	remote := remoteBase + phys.Addr(3<<20) + 0x4000
	cases := []struct {
		name     string
		mode     Mode
		initiate func(t *testing.T, f *engFixture) uint64
	}{
		// The remote case runs last: an engine that accepts it tries to
		// allocate a payload buffer of the wrapped size and panics.
		{"paired local", ModePaired, func(t *testing.T, f *engFixture) uint64 {
			f.e.Store(0, f.e.cfg.Shadow(0x8000, 0), phys.Size64, wrapSize)
			st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
			return st
		}},
		{"mapped-out", ModeMappedOut, func(t *testing.T, f *engFixture) uint64 {
			if err := f.e.MapOut(0x2000, 0xa000); err != nil {
				t.Fatal(err)
			}
			// 0x40 into the page: the page-crossing check's sum wraps too.
			st, _, _ := f.e.RMW(0, f.e.cfg.Shadow(0x2040, 0), phys.Size64, ^uint64(0)-0x1f)
			return st
		}},
		{"paired remote window", ModePaired, func(t *testing.T, f *engFixture) uint64 {
			f.e.SetRemoteHandler(&fakeRemote{})
			f.e.Store(0, f.e.cfg.Shadow(remote, 0), phys.Size64, wrapSize)
			st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
			return st
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newEngine(t, tc.mode, nil)
			if st := tc.initiate(t, f); st != StatusFailure {
				t.Errorf("status %#x, want DMA_FAILURE", st)
			}
			f.settle()
			if c := f.e.Counters(); c.Started != 0 || c.Rejected != 1 {
				t.Errorf("started %d rejected %d, want 0/1", c.Started, c.Rejected)
			}
		})
	}
}

// TestRingDescriptorSizeWrapRejected: a descriptor whose size wraps
// past both registered extents gets a DMA_FAILURE completion record.
func TestRingDescriptorSizeWrapRejected(t *testing.T) {
	f := newRingEngine(t, ModePaired)
	armRing(t, f, 8)
	post(t, f, 0, ringSrc, ringDst, wrapSize)
	doorbell(t, f, 0, 1)
	f.settle()
	if status, _ := completion(t, f, 0); status != StatusFailure {
		t.Errorf("status = %#x, want DMA_FAILURE", status)
	}
	if c := f.e.Counters(); c.Started != 0 || c.Rejected != 1 {
		t.Errorf("started %d rejected %d, want 0/1", c.Started, c.Rejected)
	}
}

// TestBoundsChecksRejectWrap drives the three validators directly:
// the exact fit passes, one byte more fails, and no wrapping size
// passes, however small the address it wraps to.
func TestBoundsChecksRejectWrap(t *testing.T) {
	wraps := []uint64{wrapSize, hugeWrap, ^uint64(0)}

	f := newEngine(t, ModePaired, nil)
	if !f.e.validateTransfer(0x1000, 0x8000, testMemSize-0x8000) {
		t.Error("validateTransfer: exact fit rejected")
	}
	if f.e.validateTransfer(0x1000, 0x8000, testMemSize-0x8000+1) {
		t.Error("validateTransfer: one byte past memory accepted")
	}
	for _, size := range wraps {
		// 0x8000+hugeWrap wraps to exactly 0.
		for _, a := range []phys.Addr{0x1000, 0x8000, 0x9000} {
			if f.e.validateTransfer(a, 0x8000, size) || f.e.validateTransfer(0x1000, a, size) {
				t.Errorf("validateTransfer: size %#x at %v accepted", size, a)
			}
		}
	}

	v := newVAEngine(t, ModePaired, nil)
	limit := uint64(1) << v.e.cfg.MemBits
	admitVA := func(size uint64) bool {
		_, ok := v.e.admitVA(args{src: phys.Addr(vaSrcVA), dst: phys.Addr(vaDstVA), size: size, virt: true})
		return ok
	}
	if !admitVA(limit - vaDstVA) {
		t.Error("admitVA: exact fit rejected")
	}
	if admitVA(limit - vaDstVA + 1) {
		t.Error("admitVA: one byte past the VA space accepted")
	}
	for _, size := range wraps {
		if admitVA(size) {
			t.Errorf("admitVA: size %#x accepted", size)
		}
	}

	r := newRingEngine(t, ModePaired)
	armRing(t, r, 8)
	ring := &r.e.rings[0]
	if !ring.ringAllowed(ringSrc+0x100, ringBufSize-0x100) {
		t.Error("ringAllowed: exact fit rejected")
	}
	if ring.ringAllowed(ringSrc+0x100, ringBufSize-0x100+1) {
		t.Error("ringAllowed: one byte past the extent accepted")
	}
	for _, size := range wraps {
		if ring.ringAllowed(ringSrc, size) {
			t.Errorf("ringAllowed: size %#x accepted", size)
		}
	}
	if err := r.e.RingAllow(0, ringSrc, hugeWrap); err == nil {
		t.Error("RingAllow accepted a wrapping extent")
	}
}
