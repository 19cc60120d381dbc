package bus

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/sim"
)

// fakeDev is a scriptable bus target recording every access.
type fakeDev struct {
	name   string
	extra  int64
	regs   map[phys.Addr]uint64
	log    []string
	stores []uint64
	fail   error
}

func newFakeDev(name string, extra int64) *fakeDev {
	return &fakeDev{name: name, extra: extra, regs: map[phys.Addr]uint64{}}
}

func (d *fakeDev) Name() string { return d.name }

func (d *fakeDev) Load(_ sim.Time, addr phys.Addr, _ phys.AccessSize) (uint64, int64, error) {
	d.log = append(d.log, "L")
	if d.fail != nil {
		return 0, d.extra, d.fail
	}
	return d.regs[addr], d.extra, nil
}

func (d *fakeDev) Store(_ sim.Time, addr phys.Addr, _ phys.AccessSize, val uint64) (int64, error) {
	d.log = append(d.log, "S")
	if d.fail != nil {
		return d.extra, d.fail
	}
	d.regs[addr] = val
	d.stores = append(d.stores, val)
	return d.extra, nil
}

// tcCost is the TurboChannel-like cost table used throughout the tests:
// store 6 cycles, load 4+4 cycles, 80ns bus cycle.
var tcCost = CostConfig{StoreCycles: 6, LoadRequestCycles: 4, LoadReplyCycles: 4}

const tcFreq = sim.Hz(12_500_000)

func newTestBus() (*Bus, *sim.Clock) {
	clock := sim.NewClock()
	return New(clock, tcFreq, tcCost), clock
}

func TestMapAndDecode(t *testing.T) {
	b, _ := newTestBus()
	d1 := newFakeDev("nic", 0)
	d2 := newFakeDev("fb", 0)
	if err := b.Map(d1, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(d2, 0x4000, 0x100); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr phys.Addr
		want string
		ok   bool
	}{
		{0x0fff, "", false},
		{0x1000, "nic", true},
		{0x1fff, "nic", true},
		{0x2000, "", false},
		{0x4000, "fb", true},
		{0x40ff, "fb", true},
		{0x4100, "", false},
	}
	for _, c := range cases {
		dev, ok := b.DeviceAt(c.addr)
		if ok != c.ok {
			t.Errorf("DeviceAt(%v) ok = %v, want %v", c.addr, ok, c.ok)
			continue
		}
		if ok && dev.Name() != c.want {
			t.Errorf("DeviceAt(%v) = %q, want %q", c.addr, dev.Name(), c.want)
		}
		if b.IsDevice(c.addr) != c.ok {
			t.Errorf("IsDevice(%v) = %v, want %v", c.addr, !c.ok, c.ok)
		}
	}
}

func TestMapRejectsOverlapAndDegenerate(t *testing.T) {
	b, _ := newTestBus()
	if err := b.Map(newFakeDev("a", 0), 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(newFakeDev("b", 0), 0x1800, 0x1000); err == nil {
		t.Fatal("overlapping Map accepted")
	}
	if err := b.Map(newFakeDev("c", 0), 0x0, 0x1001); err == nil {
		t.Fatal("overlap from below accepted")
	}
	if err := b.Map(newFakeDev("d", 0), 0x9000, 0); err == nil {
		t.Fatal("empty window accepted")
	}
	if err := b.Map(newFakeDev("e", 0), ^phys.Addr(0)-1, 16); err == nil {
		t.Fatal("wrapping window accepted")
	}
	// Adjacent windows are fine.
	if err := b.Map(newFakeDev("f", 0), 0x2000, 0x100); err != nil {
		t.Fatalf("adjacent window rejected: %v", err)
	}
}

func TestTransactionTiming(t *testing.T) {
	b, clock := newTestBus()
	d := newFakeDev("nic", 0)
	if err := b.Map(d, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := b.Store(0x1000, phys.Size64, 42); err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Now(), tcFreq.Cycles(6); got != want {
		t.Fatalf("store cost %v, want %v (6 bus cycles)", got, want)
	}
	start := clock.Now()
	v, err := b.Load(0x1000, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("load = %d, want 42", v)
	}
	if got, want := clock.Now()-start, tcFreq.Cycles(8); got != want {
		t.Fatalf("load cost %v, want %v (8 bus cycles)", got, want)
	}
}

func TestDeviceExtraCycles(t *testing.T) {
	b, clock := newTestBus()
	d := newFakeDev("nic", 2) // e.g. key check: +2 bus cycles
	if err := b.Map(d, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := b.Store(0x1000, phys.Size64, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Now(), tcFreq.Cycles(6+2); got != want {
		t.Fatalf("store with extra cost %v, want %v", got, want)
	}
	start := clock.Now()
	if _, err := b.Load(0x1000, phys.Size64); err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Now()-start, tcFreq.Cycles(8+2); got != want {
		t.Fatalf("load with extra cost %v, want %v", got, want)
	}
}

func TestUnmappedAccessErrors(t *testing.T) {
	b, _ := newTestBus()
	if err := b.Store(0x9999, phys.Size64, 0); err == nil ||
		!strings.Contains(err.Error(), "no device") {
		t.Fatalf("unmapped store: %v", err)
	}
	if _, err := b.Load(0x9999, phys.Size64); err == nil {
		t.Fatal("unmapped load succeeded")
	}
	if b.Counters().Errors != 2 {
		t.Fatalf("error counter = %d, want 2", b.Counters().Errors)
	}
}

func TestDeviceErrorPropagates(t *testing.T) {
	b, _ := newTestBus()
	d := newFakeDev("nic", 0)
	d.fail = errors.New("device wedged")
	if err := b.Map(d, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := b.Store(0x1000, phys.Size64, 1); err == nil {
		t.Fatal("device store error swallowed")
	}
	if _, err := b.Load(0x1000, phys.Size64); err == nil {
		t.Fatal("device load error swallowed")
	}
}

func TestStatsAndTrace(t *testing.T) {
	b, _ := newTestBus()
	d := newFakeDev("nic", 0)
	if err := b.Map(d, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(16, obs.DropNewest)
	b.SetTracer(tr, 0)
	b.Store(0x1000, phys.Size64, 1)
	b.Store(0x1008, phys.Size64, 2)
	b.Load(0x1000, phys.Size64)
	s := b.Counters()
	if s.Stores != 2 || s.Loads != 1 {
		t.Fatalf("counters = %+v", s)
	}
	if s.BusyCycles != 2*6+8 {
		t.Fatalf("busy cycles = %d, want 20", s.BusyCycles)
	}
	ev := tr.Events()
	if len(ev) != 3 || ev[0].Name != "store" || ev[2].Name != "load" || ev[1].A0 != 0x1008 || ev[1].A2 != 2 {
		t.Fatalf("trace = %+v", ev)
	}
}

func TestDMACycleStealing(t *testing.T) {
	b, clock := newTestBus()
	d := newFakeDev("nic", 0)
	if err := b.Map(d, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	// A DMA masters the bus from 1µs to 5µs.
	b.ReserveDMA(1*sim.Microsecond, 5*sim.Microsecond)
	// Before the window: normal cost (6 cycles).
	start := clock.Now()
	b.Store(0x1000, phys.Size64, 1)
	if got := clock.Now() - start; got != tcFreq.Cycles(6) {
		t.Fatalf("pre-window store cost %v", got)
	}
	// Inside the window: doubled.
	clock.AdvanceTo(2 * sim.Microsecond)
	start = clock.Now()
	b.Store(0x1008, phys.Size64, 1)
	if got := clock.Now() - start; got != tcFreq.Cycles(12) {
		t.Fatalf("contended store cost %v, want doubled", got)
	}
	if b.Counters().StolenCycles != 6 {
		t.Fatalf("stolen cycles = %d", b.Counters().StolenCycles)
	}
	// After the window: normal again, and the window is pruned.
	clock.AdvanceTo(6 * sim.Microsecond)
	start = clock.Now()
	b.Store(0x1010, phys.Size64, 1)
	if got := clock.Now() - start; got != tcFreq.Cycles(6) {
		t.Fatalf("post-window store cost %v", got)
	}
	// Degenerate windows are ignored.
	b.ReserveDMA(10, 10)
	b.ReserveDMA(10, 5)
	start = clock.Now()
	b.Store(0x1018, phys.Size64, 1)
	if got := clock.Now() - start; got != tcFreq.Cycles(6) {
		t.Fatalf("store after degenerate windows cost %v", got)
	}
}

// rmwDev extends fakeDev with exchange semantics.
type rmwDev struct{ *fakeDev }

func (d *rmwDev) RMW(_ sim.Time, addr phys.Addr, _ phys.AccessSize, val uint64) (uint64, int64, error) {
	d.log = append(d.log, "X")
	old := d.regs[addr]
	d.regs[addr] = val
	return old, d.extra, nil
}

func TestRMWTransaction(t *testing.T) {
	clock := sim.NewClock()
	cost := tcCost
	cost.RMWExtraCycles = 2
	b := New(clock, tcFreq, cost)
	d := &rmwDev{newFakeDev("nic", 0)}
	if err := b.Map(d, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	d.regs[0x1000] = 111
	old, err := b.RMW(0x1000, phys.Size64, 222)
	if err != nil || old != 111 {
		t.Fatalf("RMW old = %d err %v, want 111", old, err)
	}
	if d.regs[0x1000] != 222 {
		t.Fatalf("RMW did not apply: reg = %d", d.regs[0x1000])
	}
	// Cost: load round trip (8) + RMW extra (2).
	if got, want := clock.Now(), tcFreq.Cycles(10); got != want {
		t.Fatalf("RMW cost %v, want %v", got, want)
	}
	if b.Counters().RMWs != 1 {
		t.Fatalf("RMW counter = %d", b.Counters().RMWs)
	}
}

func TestRMWUnsupportedDevice(t *testing.T) {
	b, _ := newTestBus()
	if err := b.Map(newFakeDev("plain", 0), 0x1000, 0x100); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RMW(0x1000, phys.Size64, 1); err == nil ||
		!strings.Contains(err.Error(), "does not support atomic") {
		t.Fatalf("RMW on plain device: %v", err)
	}
	if _, err := b.RMW(0x9000, phys.Size64, 1); err == nil {
		t.Fatal("RMW on unmapped address succeeded")
	}
}

func TestWriteBufferRMWDrainsFirst(t *testing.T) {
	b, clock := newTestBus()
	d := &rmwDev{newFakeDev("nic", 0)}
	if err := b.Map(d, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	wb := NewWriteBuffer(b, 8, true)
	wb.Store(clock, 0, 0x1000, phys.Size64, 5)
	old, err := wb.RMW(0x1008, phys.Size64, 9)
	if err != nil || old != 0 {
		t.Fatalf("wb RMW: old=%d err=%v", old, err)
	}
	if len(d.log) != 2 || d.log[0] != "S" || d.log[1] != "X" {
		t.Fatalf("device order = %v, want [S X]", d.log)
	}
}

// --- write buffer ---

func newWBFixture(t *testing.T, coalesce bool) (*WriteBuffer, *fakeDev, *sim.Clock) {
	t.Helper()
	b, clock := newTestBus()
	d := newFakeDev("nic", 0)
	if err := b.Map(d, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	return NewWriteBuffer(b, 8, coalesce), d, clock
}

func TestWriteBufferCoalescesSameAddress(t *testing.T) {
	wb, d, clock := newWBFixture(t, true)
	// Two stores to the SAME address: the device must see only one
	// transaction — this is the footnote-6 hazard that breaks the
	// repeated-passing protocol without barriers.
	wb.Store(clock, 0, 0x1000, phys.Size64, 111)
	wb.Store(clock, 0, 0x1000, phys.Size64, 222)
	if wb.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (coalesced)", wb.Pending())
	}
	if err := wb.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(d.stores) != 1 || d.stores[0] != 222 {
		t.Fatalf("device saw stores %v, want [222]", d.stores)
	}
	if wb.Counters().Coalesced != 1 {
		t.Fatalf("coalesced counter = %d, want 1", wb.Counters().Coalesced)
	}
}

func TestWriteBufferBarrierDefeatsCoalescing(t *testing.T) {
	wb, d, clock := newWBFixture(t, true)
	wb.Store(clock, 0, 0x1000, phys.Size64, 111)
	if err := wb.Drain(); err != nil { // MB between the two stores
		t.Fatal(err)
	}
	wb.Store(clock, 0, 0x1000, phys.Size64, 222)
	if err := wb.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(d.stores) != 2 {
		t.Fatalf("device saw %d stores, want 2 (MB defeats coalescing)", len(d.stores))
	}
}

func TestWriteBufferLoadForwarding(t *testing.T) {
	wb, d, clock := newWBFixture(t, true)
	d.regs[0x1000] = 999 // device register differs from buffered value
	wb.Store(clock, 0, 0x1000, phys.Size64, 5)
	v, err := wb.Load(0x1000, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("forwarded load = %d, want buffered 5", v)
	}
	if len(d.log) != 0 {
		t.Fatalf("device saw %v during forwarded load; repeated LOAD never reached the engine", d.log)
	}
	if wb.Counters().LoadForwards != 1 {
		t.Fatalf("forward counter = %d", wb.Counters().LoadForwards)
	}
}

func TestWriteBufferLoadMissDrainsFirst(t *testing.T) {
	wb, d, clock := newWBFixture(t, true)
	d.regs[0x1080] = 77
	wb.Store(clock, 0, 0x1000, phys.Size64, 1)
	wb.Store(clock, 0, 0x1008, phys.Size64, 2)
	v, err := wb.Load(0x1080, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v != 77 {
		t.Fatalf("load = %d, want 77", v)
	}
	// Device must have seen S,S (drain, FIFO) then L.
	want := []string{"S", "S", "L"}
	if len(d.log) != 3 || d.log[0] != want[0] || d.log[1] != want[1] || d.log[2] != want[2] {
		t.Fatalf("device access order = %v, want %v", d.log, want)
	}
	if wb.Pending() != 0 {
		t.Fatal("buffer not empty after load-miss drain")
	}
}

func TestWriteBufferTimingDeferred(t *testing.T) {
	wb, _, clock := newWBFixture(t, true)
	issue := sim.Time(7 * sim.Nanosecond)
	wb.Store(clock, issue, 0x1000, phys.Size64, 1)
	if clock.Now() != issue {
		t.Fatalf("posted store cost %v, want just the %v enqueue", clock.Now(), issue)
	}
	start := clock.Now()
	if err := wb.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Now()-start, tcFreq.Cycles(6); got != want {
		t.Fatalf("drain cost %v, want %v", got, want)
	}
}

func TestWriteBufferOverflowDrains(t *testing.T) {
	b, clock := newTestBus()
	d := newFakeDev("nic", 0)
	if err := b.Map(d, 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	wb := NewWriteBuffer(b, 2, true)
	wb.Store(clock, 0, 0x1000, phys.Size64, 1)
	wb.Store(clock, 0, 0x1008, phys.Size64, 2)
	wb.Store(clock, 0, 0x1010, phys.Size64, 3) // overflow: first two drain
	if len(d.stores) != 2 || wb.Pending() != 1 {
		t.Fatalf("after overflow: device saw %v, pending %d; want 2 drained + 1 pending",
			d.stores, wb.Pending())
	}
}

func TestWriteBufferNoCoalesceMode(t *testing.T) {
	wb, d, clock := newWBFixture(t, false)
	wb.Store(clock, 0, 0x1000, phys.Size64, 1)
	wb.Store(clock, 0, 0x1000, phys.Size64, 2)
	if wb.Pending() != 2 {
		t.Fatalf("no-coalesce mode merged entries: pending = %d", wb.Pending())
	}
	// Loads must not forward in no-coalesce (strict-ordering) mode.
	d.regs[0x1000] = 0
	if _, err := wb.Load(0x1000, phys.Size64); err != nil {
		t.Fatal(err)
	}
	if d.log[len(d.log)-1] != "L" {
		t.Fatal("strict mode load did not reach device")
	}
}

func TestWriteBufferWeakOrderingBypass(t *testing.T) {
	// Ablation X3: with DrainOnLoadMiss off, a load overtakes posted
	// stores — the device sees L before S, which is exactly what breaks
	// the repeated-passing sequence without barriers.
	wb, d, clock := newWBFixture(t, true)
	wb.SetDrainOnLoadMiss(false)
	wb.Store(clock, 0, 0x1000, phys.Size64, 1)
	if _, err := wb.Load(0x1080, phys.Size64); err != nil {
		t.Fatal(err)
	}
	if len(d.log) != 1 || d.log[0] != "L" {
		t.Fatalf("device order = %v, want load bypassing the posted store", d.log)
	}
	if wb.Pending() != 1 {
		t.Fatal("posted store drained despite weak ordering")
	}
	// MB still establishes order.
	if err := wb.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(d.log) != 2 || d.log[1] != "S" {
		t.Fatalf("device order after MB = %v", d.log)
	}
}

func TestWriteBufferDrainErrorKeepsRemainder(t *testing.T) {
	b, clock := newTestBus()
	d := newFakeDev("nic", 0)
	if err := b.Map(d, 0x1000, 0x100); err != nil {
		t.Fatal(err)
	}
	wb := NewWriteBuffer(b, 8, true)
	wb.Store(clock, 0, 0x9000, phys.Size64, 1) // unmapped: drain will fail
	wb.Store(clock, 0, 0x1000, phys.Size64, 2)
	if err := wb.Drain(); err == nil {
		t.Fatal("drain of unmapped store succeeded")
	}
	if wb.Pending() != 2 {
		t.Fatalf("failed drain consumed entries: pending = %d, want 2", wb.Pending())
	}
}

// TestWriteBufferMatchesReferenceModel checks the buffer against an
// independent specification under random store/load/drain streams: the
// device must observe, in order, exactly the non-coalesced stores, and
// every load must return the newest value by program order.
func TestWriteBufferMatchesReferenceModel(t *testing.T) {
	addrs := []phys.Addr{0x1000, 0x1008, 0x1010}
	for seed := uint64(1); seed <= 50; seed++ {
		rng := sim.NewRand(seed)
		b, clock := newTestBus()
		d := newFakeDev("nic", 0)
		if err := b.Map(d, 0x1000, 0x1000); err != nil {
			t.Fatal(err)
		}
		wb := NewWriteBuffer(b, 4, true)

		// Reference: the program-order value of every address, plus the
		// queue of (addr, val) pairs the device must eventually see.
		progOrder := map[phys.Addr]uint64{}
		devSeen := map[phys.Addr]uint64{} // what has drained so far
		val := uint64(1)
		for step := 0; step < 60; step++ {
			addr := addrs[rng.Intn(len(addrs))]
			switch rng.Intn(3) {
			case 0: // store
				val++
				if err := wb.Store(clock, 0, addr, phys.Size64, val); err != nil {
					t.Fatal(err)
				}
				progOrder[addr] = val
			case 1: // load: must observe program order regardless of drains
				got, err := wb.Load(addr, phys.Size64)
				if err != nil {
					t.Fatal(err)
				}
				if got != progOrder[addr] {
					t.Fatalf("seed %d step %d: load %v = %d, program order says %d",
						seed, step, addr, got, progOrder[addr])
				}
			default: // barrier
				if err := wb.Drain(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := wb.Drain(); err != nil {
			t.Fatal(err)
		}
		// After the final drain the device agrees with program order.
		for a, want := range progOrder {
			if d.regs[a] != want {
				t.Fatalf("seed %d: device %v = %d, want %d", seed, a, d.regs[a], want)
			}
		}
		_ = devSeen
	}
}

func TestWriteBufferCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	b, _ := newTestBus()
	NewWriteBuffer(b, 0, true)
}

func TestNewBusNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock did not panic")
		}
	}()
	New(nil, tcFreq, tcCost)
}

// TestNextWindowEdge: the earliest DMA-window start or end at or after
// the given time.
func TestNextWindowEdge(t *testing.T) {
	b, _ := newTestBus()
	b.ReserveDMA(10, 20)
	b.ReserveDMA(15, 30)
	for _, tc := range []struct{ from, want sim.Time }{
		{0, 10}, {10, 10}, {12, 15}, {16, 20}, {21, 30}, {31, sim.Never},
	} {
		if got := b.NextWindowEdge(tc.from); got != tc.want {
			t.Errorf("NextWindowEdge(%d) = %d, want %d", tc.from, got, tc.want)
		}
	}
}

// TestDeviceAtMatchesSearch: DeviceAt, which first checks the range it
// decoded last, answers what a binary search over the sorted windows
// answers, for seeded streams of addresses at every window's edges, in
// the gaps between windows (adjacent windows have none), below the
// first and above the last window up to the top of the address space,
// before and after more windows are mapped.
func TestDeviceAtMatchesSearch(t *testing.T) {
	windows := []mapping{
		{base: 0x2000, size: 0x100}, {base: 0x2100, size: 0x100}, // adjacent
		{base: 0x4000, size: 1},
		{base: 0x1_0000_0000, size: 0x1000},
		// Mapped after the first probes: below the first window, near
		// the top of the address space, and two more adjacent ones.
		{base: 0x10, size: 8},
		{base: 0xffff_ffff_ffff_0000, size: 0xf000},
		{base: 0x8000, size: 0x800}, {base: 0x8800, size: 0x800},
	}
	probes := []phys.Addr{0, 1, ^phys.Addr(0), ^phys.Addr(0) - 1}
	for _, w := range windows {
		end := w.base + phys.Addr(w.size)
		probes = append(probes, w.base-1, w.base, w.base+1, end-1, end, end+1)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		b, _ := newTestBus()
		var mapped []mapping // the reference, sorted by base
		mapWindows := func(ws []mapping) {
			for _, w := range ws {
				w.dev = newFakeDev(fmt.Sprintf("at %v", w.base), 0)
				if err := b.Map(w.dev, w.base, w.size); err != nil {
					t.Fatal(err)
				}
				mapped = append(mapped, w)
			}
			slices.SortFunc(mapped, func(x, y mapping) int { return cmp.Compare(x.base, y.base) })
		}
		search := func(addr phys.Addr) Device {
			i := sort.Search(len(mapped), func(i int) bool { return uint64(mapped[i].base)+mapped[i].size > uint64(addr) })
			if i < len(mapped) && addr >= mapped[i].base {
				return mapped[i].dev
			}
			return nil
		}
		check := func() {
			for i := 0; i < 500; i++ {
				addr := probes[rng.Intn(len(probes))]
				if rng.Intn(4) == 0 {
					addr += phys.Addr(rng.Intn(16)) - 8
				}
				dev, ok := b.DeviceAt(addr)
				if want := search(addr); dev != want || ok != (want != nil) {
					t.Fatalf("trial %d, %d windows: DeviceAt(%v) = %v, %v; the search finds %v", trial, len(mapped), addr, dev, ok, want)
				}
				if b.IsDevice(addr) != ok {
					t.Fatalf("trial %d: IsDevice(%v) disagrees with DeviceAt", trial, addr)
				}
			}
		}
		check() // nothing mapped
		mapWindows(windows[:4])
		check()
		mapWindows(windows[4:])
		check()
	}
}
