package dma

import (
	"errors"
	"testing"

	"uldma/internal/iommu"
	"uldma/internal/phys"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// VA fixture layout: the VA window sits clear of every other engine
// window; device VAs are deliberately different from the frames they
// map to, so a passing test proves translation actually happened.
const (
	vaBase     = phys.Addr(0x10_0000_0000)
	vaMissTime = 2 * sim.Microsecond
	vaSrcVA    = uint64(0x40000)
	vaDstVA    = uint64(0x60000)
	vaSrcPA    = phys.Addr(0x20000)
	vaDstPA    = phys.Addr(0x30000)
)

// stubResolver is a minimal kernel stand-in: pages it has backing for
// resolve after pageIn, refused pages fail with errRefused, and
// everything else is ErrFaultPending (the manual-park path).
type stubResolver struct {
	io      *iommu.IOMMU
	ps      uint64
	pageIn  sim.Time
	backing map[uint64]phys.Addr // device page VA (ctx 0..n share it) -> frame
	refused map[uint64]bool      // device page VAs the kernel will not map
	pins    int
	unpins  int
	pinErr  error
}

var errRefused = errors.New("stub: page refused")

func (r *stubResolver) ResolveFault(ctx int, va uint64, _ bool) (sim.Time, error) {
	base := va &^ (r.ps - 1)
	if r.refused[base] {
		return 0, errRefused
	}
	if _, ok := r.io.Lookup(ctx, base); ok {
		return 0, nil
	}
	if frame, ok := r.backing[base]; ok {
		if err := r.io.Map(ctx, base, frame, vm.Read|vm.Write); err != nil {
			return 0, err
		}
		return r.pageIn, nil
	}
	return 0, ErrFaultPending
}

func (r *stubResolver) PinRange(ctx int, va, size uint64, write bool) (sim.Time, error) {
	if r.pinErr != nil {
		return 0, r.pinErr
	}
	var total sim.Time
	for base := va &^ (r.ps - 1); base < va+size; base += r.ps {
		lat, err := r.ResolveFault(ctx, base, write)
		if err != nil {
			return 0, err
		}
		total += lat
	}
	r.pins++
	return total, nil
}

func (r *stubResolver) UnpinRange(int, uint64, uint64) { r.unpins++ }

type vaFixture struct {
	*engFixture
	io  *iommu.IOMMU
	res *stubResolver
}

func newVAEngine(tb testing.TB, mode Mode, mut func(*Config)) *vaFixture {
	tb.Helper()
	cfg := testConfig(mode)
	cfg.VABase = vaBase
	cfg.IOTLBMissTime = vaMissTime
	cfg.BouncePages = 4
	cfg.BounceBase = phys.Addr(testMemSize - 4*testPageSize)
	if mut != nil {
		mut(&cfg)
	}
	mem := phys.New(testMemSize)
	events := new(sim.EventQueue)
	e, err := New(cfg, events, mem)
	if err != nil {
		tb.Fatal(err)
	}
	io, err := iommu.New(iommu.Config{Contexts: e.NumContexts(), PageSize: cfg.PageSize})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.AttachIOMMU(io); err != nil {
		tb.Fatal(err)
	}
	res := &stubResolver{io: io, ps: cfg.PageSize, backing: map[uint64]phys.Addr{}, refused: map[uint64]bool{}}
	e.SetFaultResolver(res)
	return &vaFixture{engFixture: &engFixture{e: e, mem: mem, events: events}, io: io, res: res}
}

// mapVA installs the standard src/dst device pages (n pages each) for
// ctx with translation actually changing the address.
func (f *vaFixture) mapVA(tb testing.TB, ctx, pages int) {
	tb.Helper()
	ps := f.e.Config().PageSize
	for i := 0; i < pages; i++ {
		off := uint64(i) * ps
		if err := f.io.Map(ctx, vaSrcVA+off, vaSrcPA+phys.Addr(off), vm.Read); err != nil {
			tb.Fatal(err)
		}
		if err := f.io.Map(ctx, vaDstVA+off, vaDstPA+phys.Addr(off), vm.Read|vm.Write); err != nil {
			tb.Fatal(err)
		}
	}
}

// vaOff builds a VA-window address for (ctx, device VA).
func vaOff(ctx int, va uint64) phys.Addr {
	return vaBase + phys.Addr(uint64(ctx)<<26|va)
}

// initiatePaired drives the two-access paired protocol through the VA
// window and returns the load's status word.
func (f *vaFixture) initiatePaired(tb testing.TB, now sim.Time, ctx int, srcVA, dstVA, size uint64) uint64 {
	tb.Helper()
	if _, err := f.e.Store(now, vaOff(ctx, dstVA), phys.Size64, size); err != nil {
		tb.Fatal(err)
	}
	v, _, err := f.e.Load(now, vaOff(ctx, srcVA), phys.Size64)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func TestVAConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bounce without va window", func(c *Config) { c.BouncePages = 2; c.BounceBase = 0x10000 }},
		{"bounce base unaligned", func(c *Config) {
			c.VABase = vaBase
			c.BouncePages = 2
			c.BounceBase = 0x10008
		}},
		{"bounce region past memory", func(c *Config) {
			c.VABase = vaBase
			c.BouncePages = 2
			c.BounceBase = phys.Addr(testMemSize - testPageSize)
		}},
	}
	for _, tc := range cases {
		cfg := testConfig(ModePaired)
		tc.mut(&cfg)
		if _, err := New(cfg, new(sim.EventQueue), phys.New(testMemSize)); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	cfg := testConfig(ModePaired)
	cfg.VABase = vaBase
	if got := cfg.WindowOf(vaBase + 1); got != "va" {
		t.Errorf("WindowOf(va window) = %q", got)
	}
	if got := cfg.VAWindowSize(); got != 4<<26 {
		t.Errorf("VAWindowSize = %#x, want 4<<26", got)
	}
}

func TestVAAttachValidation(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	io, err := iommu.New(iommu.Config{Contexts: 1, PageSize: testPageSize / 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.e.AttachIOMMU(io); err == nil {
		t.Error("AttachIOMMU accepted a mismatched page size")
	}
	io, err = iommu.New(iommu.Config{Contexts: 1, PageSize: testPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.e.AttachIOMMU(io); err == nil {
		t.Error("AttachIOMMU accepted too few contexts")
	}
}

func TestVAPairedInitiation(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	f.mapVA(t, 0, 1)
	f.fillSrc(vaSrcPA, 256, 0xAB)
	if v := f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, 256); v == StatusFailure {
		t.Fatal("VA-window paired initiation rejected")
	}
	f.settle()
	f.expectMoved(t, vaDstPA, 256, 0xAB)
	last := f.e.LastTransfer()
	if !last.Virt || last.VCtx != 0 {
		t.Fatalf("transfer Virt=%v VCtx=%d, want true/0", last.Virt, last.VCtx)
	}
	if got := f.e.ctr.VAStarted.Value(); got != 1 {
		t.Fatalf("vaStarted = %d, want 1", got)
	}
	if !last.Done(last.End) {
		t.Fatal("transfer not done after settle")
	}
}

// TestVAPairedWindowStraddle: half the pair through the VA window and
// half through the physical shadow window names arguments in different
// address spaces; the engine must refuse rather than mix.
func TestVAPairedWindowStraddle(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	f.mapVA(t, 0, 1)
	if _, err := f.e.Store(0, vaOff(0, vaDstVA), phys.Size64, 64); err != nil {
		t.Fatal(err)
	}
	v, _, err := f.e.Load(0, shadowBase+phys.Addr(vaSrcPA), phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v != StatusFailure {
		t.Fatal("physical load consumed a virtual half-initiation")
	}
	// And the reverse: physical store, virtual load.
	if _, err := f.e.Store(0, shadowBase+phys.Addr(vaDstPA), phys.Size64, 64); err != nil {
		t.Fatal(err)
	}
	v, _, err = f.e.Load(0, vaOff(0, vaSrcVA), phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v != StatusFailure {
		t.Fatal("virtual load consumed a physical half-initiation")
	}
}

func TestVAExtendedInitiation(t *testing.T) {
	f := newVAEngine(t, ModeExtended, nil)
	const ctx = 2
	f.mapVA(t, ctx, 1)
	f.fillSrc(vaSrcPA, 512, 0x5C)
	if _, err := f.e.Store(0, vaOff(ctx, vaDstVA), phys.Size64, 512); err != nil {
		t.Fatal(err)
	}
	v, _, err := f.e.Load(0, vaOff(ctx, vaSrcVA), phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v == StatusFailure {
		t.Fatal("VA-window extended initiation rejected")
	}
	f.settle()
	f.expectMoved(t, vaDstPA, 512, 0x5C)
	last := f.e.LastTransfer()
	if !last.Virt || last.VCtx != ctx {
		t.Fatalf("transfer Virt=%v VCtx=%d, want true/%d", last.Virt, last.VCtx, ctx)
	}
	// The register context must be polled back to done.
	if got := f.e.ContextTransfer(ctx); got != last {
		t.Fatal("context current transfer is not the virtual transfer")
	}
}

func TestVARepeatedInitiation(t *testing.T) {
	f := newVAEngine(t, ModeRepeated, nil)
	f.mapVA(t, 0, 1)
	f.fillSrc(vaSrcPA, 128, 0x77)
	// Figure 7's 5-access pattern (S d, L s, S d, L s, L d), driven
	// entirely through the VA window with device addresses.
	vst := func(va, size uint64) {
		if _, err := f.e.Store(0, vaOff(0, va), phys.Size64, size); err != nil {
			t.Fatal(err)
		}
	}
	vld := func(va uint64) uint64 {
		v, _, err := f.e.Load(0, vaOff(0, va), phys.Size64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	vst(vaDstVA, 128)
	if vld(vaSrcVA) == StatusFailure {
		t.Fatal("access 2 rejected")
	}
	vst(vaDstVA, 128)
	if vld(vaSrcVA) == StatusFailure {
		t.Fatal("access 4 rejected")
	}
	if vld(vaDstVA) == StatusFailure {
		t.Fatal("VA-window repeated initiation rejected")
	}
	f.settle()
	f.expectMoved(t, vaDstPA, 128, 0x77)
	if last := f.e.LastTransfer(); !last.Virt {
		t.Fatal("repeated-mode transfer not virtual")
	}
}

func TestVAIOTLBMissPenalty(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	f.mapVA(t, 0, 2)
	size := uint64(2 * testPageSize)
	f.fillSrc(vaSrcPA, int(size), 0x11)

	// Cold IOTLB: every page of both extents misses; the real end is
	// pushed past the nominal bandwidth line.
	f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, size)
	cold := f.e.LastTransfer()
	start1 := cold.Start
	nominal := cold.End
	f.settle()
	if cold.End <= nominal {
		t.Fatalf("cold run End %v not pushed past nominal %v by IOTLB misses", cold.End, nominal)
	}
	coldSpan := cold.End - start1
	f.expectMoved(t, vaDstPA, int(size), 0x11)

	// Warm IOTLB: all four pages cached, zero penalty — the span is
	// exactly the bandwidth line.
	now := f.events.Drain(0)
	f.initiatePaired(t, now, 0, vaSrcVA, vaDstVA, size)
	warm := f.e.LastTransfer()
	want := warm.End - warm.Start
	f.settle()
	if got := warm.End - warm.Start; got != want {
		t.Fatalf("warm run span %v, want nominal %v", got, want)
	}
	if warmSpan := warm.End - warm.Start; warmSpan >= coldSpan {
		t.Fatalf("warm span %v not shorter than cold span %v", warmSpan, coldSpan)
	}
	if tc := f.io.IOTLB().Counters(); tc.Misses == 0 || tc.Hits == 0 {
		t.Fatalf("IOTLB hits=%d misses=%d, want both nonzero", tc.Hits, tc.Misses)
	}
}

func TestVAStallParkAndResume(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	// Source mapped; destination page absent with NO backing: the
	// resolver answers ErrFaultPending and the transfer parks.
	if err := f.io.Map(0, vaSrcVA, vaSrcPA, vm.Read); err != nil {
		t.Fatal(err)
	}
	f.fillSrc(vaSrcPA, 256, 0xEE)
	if v := f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, 256); v == StatusFailure {
		t.Fatal("initiation rejected")
	}
	now := f.settle()
	if got := f.e.ParkedTransfers(); got != 1 {
		t.Fatalf("ParkedTransfers = %d, want 1", got)
	}
	last := f.e.LastTransfer()
	if last.Done(now) {
		t.Fatal("parked transfer reports done")
	}
	if got := f.e.ctr.VAStalls.Value(); got != 1 {
		t.Fatalf("vaStalls = %d, want 1", got)
	}

	// Kernel maps the page and resumes.
	if err := f.io.Map(0, vaDstVA, vaDstPA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	resumeAt := now + 100*sim.Microsecond
	if n := f.e.ResumeFaulted(0, resumeAt); n != 1 {
		t.Fatalf("ResumeFaulted = %d, want 1", n)
	}
	f.settle()
	f.expectMoved(t, vaDstPA, 256, 0xEE)
	if f.e.ParkedTransfers() != 0 {
		t.Fatal("transfer still parked after resume")
	}
	if last.End < resumeAt {
		t.Fatalf("End %v precedes the resume at %v", last.End, resumeAt)
	}
	if !last.Done(last.End) {
		t.Fatal("resumed transfer not done")
	}
}

func TestVAStallInlineResolve(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	const pageIn = 50 * sim.Microsecond
	f.res.pageIn = pageIn
	// Source mapped; destination page-in-able: the walker stalls for the
	// page-in latency and retries inline — no parking.
	if err := f.io.Map(0, vaSrcVA, vaSrcPA, vm.Read); err != nil {
		t.Fatal(err)
	}
	f.res.backing[vaDstVA] = vaDstPA
	f.fillSrc(vaSrcPA, 256, 0x3D)
	f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, 256)
	last := f.e.LastTransfer()
	nominal := last.End
	f.settle()
	f.expectMoved(t, vaDstPA, 256, 0x3D)
	if f.e.ParkedTransfers() != 0 {
		t.Fatal("inline resolution parked the transfer")
	}
	if last.End < nominal+pageIn {
		t.Fatalf("End %v does not cover the %v page-in (nominal %v)", last.End, pageIn, nominal)
	}
}

func TestVABounceRecovery(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	f.e.SetRecoveryPolicy(RecoverBounce)
	f.res.pageIn = 200 * sim.Microsecond
	size := uint64(2 * testPageSize)
	// Both source pages and the first destination page resident; the
	// second destination page faults mid-transfer but has backing, so it
	// bounces: the stream keeps moving into the bounce frame and the
	// fix-up copy lands after the page-in.
	for i := 0; i < 2; i++ {
		off := uint64(i) * testPageSize
		if err := f.io.Map(0, vaSrcVA+off, vaSrcPA+phys.Addr(off), vm.Read); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.io.Map(0, vaDstVA, vaDstPA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	f.res.backing[vaDstVA+testPageSize] = vaDstPA + testPageSize
	f.fillSrc(vaSrcPA, int(size), 0x9A)
	f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, size)
	last := f.e.LastTransfer()
	f.settle()
	f.expectMoved(t, vaDstPA, int(size), 0x9A)
	if got := f.e.ctr.VABounced.Value(); got == 0 {
		t.Fatal("no pages bounced")
	}
	if got := len(f.e.bounceFree); got != f.e.Config().BouncePages {
		t.Fatalf("bounce frames free = %d, want %d back", got, f.e.Config().BouncePages)
	}
	if f.e.ParkedTransfers() != 0 {
		t.Fatal("bounce policy parked the transfer")
	}
	if last.End < f.res.pageIn {
		t.Fatalf("End %v does not cover the fix-up after the %v page-in", last.End, f.res.pageIn)
	}
}

// TestVABounceSourceFaultStalls: bounce redirects destinations only — a
// source fault has no data to redirect and falls back to the stall path.
func TestVABounceSourceFaultStalls(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	f.e.SetRecoveryPolicy(RecoverBounce)
	if err := f.io.Map(0, vaDstVA, vaDstPA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, 256)
	f.settle()
	if got := f.e.ParkedTransfers(); got != 1 {
		t.Fatalf("ParkedTransfers = %d, want 1 (source fault must stall)", got)
	}
	if err := f.io.Map(0, vaSrcVA, vaSrcPA, vm.Read); err != nil {
		t.Fatal(err)
	}
	f.fillSrc(vaSrcPA, 256, 0x42)
	f.e.ResumeFaulted(-1, f.events.Drain(0)+sim.Microsecond)
	f.settle()
	f.expectMoved(t, vaDstPA, 256, 0x42)
}

// twoPageTransfer sets up a two-page transfer whose source pages and
// first destination page are resident; the second destination page is
// left to the test. Returns the transfer size.
func (f *vaFixture) twoPageTransfer(tb testing.TB) uint64 {
	tb.Helper()
	size := uint64(2 * testPageSize)
	for i := uint64(0); i < 2; i++ {
		if err := f.io.Map(0, vaSrcVA+i*testPageSize, vaSrcPA+phys.Addr(i*testPageSize), vm.Read); err != nil {
			tb.Fatal(err)
		}
	}
	if err := f.io.Map(0, vaDstVA, vaDstPA, vm.Read|vm.Write); err != nil {
		tb.Fatal(err)
	}
	f.fillSrc(vaSrcPA, int(size), 0x5C)
	return size
}

// expectVAFailed checks the aftermath of a mid-transfer failure: the
// status reads DMA_FAILURE, nothing is left parked, the walker is back
// in its pool and every bounce frame is free.
func (f *vaFixture) expectVAFailed(tb testing.TB, last *Transfer) {
	tb.Helper()
	now := f.settle()
	if st := last.Remaining(now); st != StatusFailure {
		tb.Errorf("status = %#x, want DMA_FAILURE", st)
	}
	if n := f.e.ParkedTransfers(); n != 0 {
		tb.Errorf("ParkedTransfers = %d, want 0", n)
	}
	if last.vw != nil {
		tb.Error("failed transfer still holds its walker")
	}
	if got := len(f.e.bounceFree); got != f.e.Config().BouncePages {
		tb.Errorf("bounce frames free = %d, want %d", got, f.e.Config().BouncePages)
	}
	if got := f.e.Counters().Completed; got != 0 {
		tb.Errorf("Completed = %d, want 0", got)
	}
}

// TestVAFaultRefusedFails: a resolver error other than ErrFaultPending
// fails the transfer mid-stream instead of parking it.
func TestVAFaultRefusedFails(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	size := f.twoPageTransfer(t)
	f.res.refused[vaDstVA+testPageSize] = true
	if v := f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, size); v == StatusFailure {
		t.Fatal("initiation rejected")
	}
	f.expectVAFailed(t, f.e.LastTransfer())
	f.expectMoved(t, vaDstPA, testPageSize, 0x5C)
	if got := f.e.ctr.VAFaults.Value(); got != 1 {
		t.Errorf("vaFaults = %d, want 1", got)
	}
}

// TestVAPinFaultRefusedUnpins: under RecoverPin a pinned page that
// disappears mid-transfer and cannot be brought back fails the
// transfer, and both pinned extents are released.
func TestVAPinFaultRefusedUnpins(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	f.e.SetRecoveryPolicy(RecoverPin)
	size := f.twoPageTransfer(t)
	f.res.backing[vaDstVA+testPageSize] = vaDstPA + testPageSize // the pin succeeds...
	if v := f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, size); v == StatusFailure {
		t.Fatal("initiation rejected")
	}
	if f.res.pins != 2 || f.res.unpins != 0 {
		t.Fatalf("after initiation: pins %d unpins %d, want 2/0", f.res.pins, f.res.unpins)
	}
	// ...then the page vanishes and the kernel refuses to restore it.
	if err := f.io.Unmap(0, vaDstVA+testPageSize); err != nil {
		t.Fatal(err)
	}
	f.res.refused[vaDstVA+testPageSize] = true
	f.expectVAFailed(t, f.e.LastTransfer())
	if f.res.unpins != 2 {
		t.Errorf("unpins = %d, want 2 (both extents)", f.res.unpins)
	}
}

// TestVABounceFixupRefusedWhileParked: a bounce fix-up whose page was
// evicted and is then refused fails the transfer while its walker is
// parked on a later source fault, which takes the walker off the
// parked list.
func TestVABounceFixupRefusedWhileParked(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	f.e.SetRecoveryPolicy(RecoverBounce)
	f.res.pageIn = 200 * sim.Microsecond
	size := uint64(2 * testPageSize)
	// Source page two is absent with no backing (the walker parks on
	// it); destination page one bounces.
	if err := f.io.Map(0, vaSrcVA, vaSrcPA, vm.Read); err != nil {
		t.Fatal(err)
	}
	f.res.backing[vaDstVA] = vaDstPA
	f.fillSrc(vaSrcPA, testPageSize, 0x71)
	if v := f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, size); v == StatusFailure {
		t.Fatal("initiation rejected")
	}
	last := f.e.LastTransfer()
	// Before the fix-up lands (page-in plus copy after the first burst),
	// the bounced page is evicted and the kernel refuses it back.
	f.events.ScheduleFunc(f.res.pageIn, func(sim.Time) {
		if f.e.ParkedTransfers() != 1 || f.e.ctr.VABounced.Value() == 0 {
			t.Errorf("at eviction: parked %d bounced %d, want 1 and > 0",
				f.e.ParkedTransfers(), f.e.ctr.VABounced.Value())
		}
		if err := f.io.Unmap(0, vaDstVA); err != nil {
			t.Error(err)
		}
		f.res.refused[vaDstVA] = true
	})
	f.expectVAFailed(t, last)
}

func TestVAPinPolicy(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	f.e.SetRecoveryPolicy(RecoverPin)
	f.res.pageIn = 75 * sim.Microsecond
	// Nothing resident, everything backable: the pin pre-faults both
	// extents before the engine even starts, so the walk never faults.
	f.res.backing[vaSrcVA] = vaSrcPA
	f.res.backing[vaDstVA] = vaDstPA
	f.fillSrc(vaSrcPA, 256, 0xC4)
	if v := f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, 256); v == StatusFailure {
		t.Fatal("pin-policy initiation rejected")
	}
	last := f.e.LastTransfer()
	f.settle()
	f.expectMoved(t, vaDstPA, 256, 0xC4)
	if got := f.e.ctr.VAPins.Value(); got != 1 {
		t.Fatalf("vaPins = %d, want 1", got)
	}
	if got := f.e.ctr.VAFaults.Value(); got != 0 {
		t.Fatalf("vaFaults = %d, want 0 under pin", got)
	}
	if f.res.unpins != 2 {
		t.Fatalf("unpins = %d, want 2 (both extents) at completion", f.res.unpins)
	}
	// The pin latency precedes startup: Start covers the two page-ins.
	if last.Start < 2*f.res.pageIn {
		t.Fatalf("Start %v does not cover the pin page-ins", last.Start)
	}

	// A pin the kernel refuses rejects the transfer up front.
	f.res.pinErr = errors.New("pin refused")
	if v := f.initiatePaired(t, f.events.Drain(0), 0, vaSrcVA, vaDstVA, 256); v != StatusFailure {
		t.Fatal("initiation accepted with the pin refused")
	}
}

func TestVAValidateRejects(t *testing.T) {
	f := newVAEngine(t, ModePaired, func(c *Config) { c.MaxTransfer = 1 << 16 })
	f.mapVA(t, 0, 1)
	cases := []struct {
		name string
		ctx  int
		src  uint64
		dst  uint64
		size uint64
	}{
		{"size over MaxTransfer", 0, vaSrcVA, vaDstVA, 1<<16 + 1},
		{"src beyond MemBits", 0, 1<<26 - 64, vaDstVA, 256},
		{"dst beyond MemBits", 0, vaSrcVA, 1<<26 - 64, 256},
	}
	for _, tc := range cases {
		if v := f.initiatePaired(t, 0, tc.ctx, tc.src, tc.dst, tc.size); v != StatusFailure {
			t.Errorf("%s: accepted", tc.name)
		}
		if last := f.e.LastTransfer(); !last.Failed {
			t.Errorf("%s: last transfer not failed", tc.name)
		}
	}
	// Pin policy with no resolver attached rejects.
	f.e.SetFaultResolver(nil)
	f.e.SetRecoveryPolicy(RecoverPin)
	if v := f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, 256); v != StatusFailure {
		t.Error("pin policy accepted without a resolver")
	}
}

// TestVAParkedSnapshotRestore is the mid-fault fidelity pin at the
// engine level: snapshot a world with a transfer parked on a fault,
// resume and finish it, rewind, and re-run — the replay must finish at
// the identical time with identical bytes.
func TestVAParkedSnapshotRestore(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	if err := f.io.Map(0, vaSrcVA, vaSrcPA, vm.Read); err != nil {
		t.Fatal(err)
	}
	f.fillSrc(vaSrcPA, 256, 0xD7)
	f.initiatePaired(t, 0, 0, vaSrcVA, vaDstVA, 256)
	now := f.settle()
	if f.e.ParkedTransfers() != 1 {
		t.Fatal("transfer did not park")
	}

	// The machine layer snapshots the IOMMU alongside the engine; at the
	// engine level the test does the same — without the IOMMU
	// rewind, run 2 would replay against run 1's warmed IOTLB and finish
	// early.
	snap, err := f.e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ioSnap := f.io.Snapshot()

	// Run 1: map the page, resume, finish.
	if err := f.io.Map(0, vaDstVA, vaDstPA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	resumeAt := now + 10*sim.Microsecond
	f.e.ResumeFaulted(-1, resumeAt)
	f.settle()
	end1 := f.e.LastTransfer().End
	bytes1, err := f.mem.ReadBytes(vaDstPA, 256)
	if err != nil {
		t.Fatal(err)
	}

	// Rewind. The engine restore rebuilds the parked walker around a
	// fresh Transfer copy; scrub the destination to prove the replay
	// rewrites it.
	if err := f.e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := f.io.Restore(ioSnap); err != nil {
		t.Fatal(err)
	}
	if f.e.ParkedTransfers() != 1 {
		t.Fatal("restore did not rebuild the parked transfer")
	}
	if err := f.mem.Fill(vaDstPA, 256, 0); err != nil {
		t.Fatal(err)
	}

	// Run 2: identical stimulus — re-map the destination exactly as run
	// 1 did — identical outcome.
	if err := f.io.Map(0, vaDstVA, vaDstPA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	f.e.ResumeFaulted(-1, resumeAt)
	f.settle()
	end2 := f.e.LastTransfer().End
	if end2 != end1 {
		t.Fatalf("replayed End %v != original %v", end2, end1)
	}
	bytes2, err := f.mem.ReadBytes(vaDstPA, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bytes1 {
		if bytes1[i] != bytes2[i] {
			t.Fatalf("replayed byte %d = %#x, want %#x", i, bytes2[i], bytes1[i])
		}
	}
	// And the restored walker's state hash matched the parked original.
	if f.e.ParkedTransfers() != 0 {
		t.Fatal("replay left the transfer parked")
	}
}

// vaPairedHit drives one paired initiation through the VA window and
// drains its walk.
func vaPairedHit(tb testing.TB, f *vaFixture, now sim.Time) sim.Time {
	if _, err := f.e.Store(now, vaOff(0, vaDstVA), phys.Size64, 2048); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := f.e.Load(now, vaOff(0, vaSrcVA), phys.Size64); err != nil {
		tb.Fatal(err)
	}
	return f.events.Drain(0)
}

// TestVATranslateZeroAllocs: with a warm IOTLB and no faults, the
// initiate->translate->stream->complete path allocates nothing —
// walkers, buffers, transfer records and events are all pooled.
func TestVATranslateZeroAllocs(t *testing.T) {
	f := newVAEngine(t, ModePaired, nil)
	f.mapVA(t, 0, 1)
	now := sim.Time(0)
	for i := 0; i < 4; i++ { // warm the pools and the IOTLB
		now = vaPairedHit(t, f, now)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		now = vaPairedHit(t, f, now)
	})
	if allocs > 0 {
		t.Fatalf("no-fault VA translate path allocates %.1f/op, want 0", allocs)
	}
	if got := f.e.ctr.VAFaults.Value(); got != 0 {
		t.Fatalf("warm path took %d faults", got)
	}
}

// faultedTransferAllocs returns the warm per-transfer allocations of a
// two-page VA transfer whose second destination page is evicted before
// every initiation, under policy. It also checks that every transfer
// took its fault and that every bounce frame came back.
func faultedTransferAllocs(t *testing.T, policy RecoveryPolicy) float64 {
	t.Helper()
	f := newVAEngine(t, ModeExtended, nil)
	f.e.SetRecoveryPolicy(policy)
	f.res.pageIn = 20 * sim.Microsecond
	const ctx = 1
	size := uint64(2 * testPageSize)
	for i := 0; i < 2; i++ {
		off := uint64(i) * testPageSize
		if err := f.io.Map(ctx, vaSrcVA+off, vaSrcPA+phys.Addr(off), vm.Read); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.io.Map(ctx, vaDstVA, vaDstPA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	second := vaDstVA + testPageSize
	f.res.backing[second] = vaDstPA + testPageSize
	now := sim.Time(0)
	transfer := func() {
		if err := f.io.Unmap(ctx, second); err != nil {
			t.Fatal(err)
		}
		if _, err := f.e.Store(now, vaOff(ctx, vaDstVA), phys.Size64, size); err != nil {
			t.Fatal(err)
		}
		if v, _, err := f.e.Load(now, vaOff(ctx, vaSrcVA), phys.Size64); err != nil || v == StatusFailure {
			t.Fatalf("initiation: status %#x, err %v", v, err)
		}
		now = f.settle()
	}
	for i := 0; i < 4; i++ { // warm the walker, fix-up, transfer and event pools
		transfer()
	}
	// A bounced page is not counted as a fault: it never stalls.
	taken := &f.e.ctr.VAFaults
	if policy == RecoverBounce {
		taken = &f.e.ctr.VABounced
	}
	before := taken.Value()
	allocs := testing.AllocsPerRun(100, transfer)
	if got := taken.Value() - before; got != 101 {
		t.Fatalf("%v: %d faulted pages over 101 transfers, want one each", policy, got)
	}
	if got := len(f.e.bounceFree); got != f.e.Config().BouncePages {
		t.Fatalf("%v: bounce frames free = %d, want all %d back", policy, got, f.e.Config().BouncePages)
	}
	return allocs
}

// TestVABounceFixupZeroAllocs: once the pools are warm, bouncing a
// faulting destination page and copying it back allocates nothing.
// Fix-up records are pooled and the copy goes through the walker's
// piece buffer, so a bounced transfer allocates exactly what the same
// transfer stalled on an inline page-in does; that one allocation is
// the IOMMU's translation-fault error, which both paths take.
func TestVABounceFixupZeroAllocs(t *testing.T) {
	stall := faultedTransferAllocs(t, RecoverStall)
	bounce := faultedTransferAllocs(t, RecoverBounce)
	if bounce != stall {
		t.Fatalf("bounced transfer allocates %.1f/op, stalled %.1f/op: the fix-up allocates", bounce, stall)
	}
	if stall > 1 {
		t.Fatalf("faulted transfer allocates %.1f/op, want at most the fault error", stall)
	}
}

// BenchmarkVATranslateHit measures one warm paired initiation + walk
// through the VA window.
func BenchmarkVATranslateHit(b *testing.B) {
	f := newVAEngine(b, ModePaired, nil)
	f.mapVA(b, 0, 1)
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = vaPairedHit(b, f, now)
	}
}
