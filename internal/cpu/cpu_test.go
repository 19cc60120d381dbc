package cpu

import (
	"errors"
	"testing"

	"uldma/internal/bus"
	"uldma/internal/phys"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

const (
	coreFreq = 150 * sim.MHz
	busFreq  = sim.Hz(12_500_000)
	pageSize = 8192
	devBase  = phys.Addr(0x1000_0000)
)

// echoDev is a trivial device with a register file.
type echoDev struct {
	regs map[phys.Addr]uint64
	log  []string
}

func (d *echoDev) Name() string { return "echo" }
func (d *echoDev) Load(_ sim.Time, a phys.Addr, _ phys.AccessSize) (uint64, int64, error) {
	d.log = append(d.log, "L")
	return d.regs[a], 0, nil
}
func (d *echoDev) Store(_ sim.Time, a phys.Addr, _ phys.AccessSize, v uint64) (int64, error) {
	d.log = append(d.log, "S")
	d.regs[a] = v
	return 0, nil
}

type fixture struct {
	cpu    *CPU
	clock  *sim.Clock
	mem    *phys.Memory
	dev    *echoDev
	as     *vm.AddressSpace
	events *sim.EventQueue
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := sim.NewClock()
	events := new(sim.EventQueue)
	mem := phys.New(1 << 20)
	b := bus.New(clock, busFreq, bus.CostConfig{StoreCycles: 6, LoadRequestCycles: 4, LoadReplyCycles: 4})
	dev := &echoDev{regs: map[phys.Addr]uint64{}}
	if err := b.Map(dev, devBase, 1<<16); err != nil {
		t.Fatal(err)
	}
	wb := bus.NewWriteBuffer(b, 8, true)
	cfg := Config{
		Freq: coreFreq, IssueCycles: 1, CacheHitCycles: 2,
		TLBMissCycles: 40, MBCycles: 3, TLBEntries: 8,
	}
	c := New(cfg, clock, events, mem, b, wb)
	as := vm.NewAddressSpace(1, pageSize)
	// One RAM page and one device page.
	if err := as.Map(0x10000, 0x40000, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x20000, devBase, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	return &fixture{cpu: c, clock: clock, mem: mem, dev: dev, as: as, events: events}
}

func TestMemoryLoadStore(t *testing.T) {
	f := newFixture(t)
	if err := f.cpu.Store(f.as, 0x10008, phys.Size64, 0xabcd); err != nil {
		t.Fatal(err)
	}
	v, err := f.cpu.Load(f.as, 0x10008, phys.Size64)
	if err != nil || v != 0xabcd {
		t.Fatalf("load = %#x, err %v", v, err)
	}
	// Value actually landed in physical memory at the mapped frame.
	pv, _ := f.mem.Read(0x40008, phys.Size64)
	if pv != 0xabcd {
		t.Fatalf("physical memory holds %#x", pv)
	}
	s := f.cpu.Counters()
	if s.MemoryAccess != 2 || s.DeviceAccess != 0 {
		t.Fatalf("counters = %+v", s)
	}
}

func TestDeviceStoreIsPosted(t *testing.T) {
	f := newFixture(t)
	if err := f.cpu.Store(f.as, 0x20000, phys.Size64, 7); err != nil {
		t.Fatal(err)
	}
	if len(f.dev.log) != 0 {
		t.Fatal("posted store reached device before any ordering point")
	}
	if f.cpu.WriteBuffer().Pending() != 1 {
		t.Fatal("store not buffered")
	}
	if err := f.cpu.MB(); err != nil {
		t.Fatal(err)
	}
	if len(f.dev.log) != 1 || f.dev.log[0] != "S" {
		t.Fatalf("device log after MB: %v", f.dev.log)
	}
	if f.dev.regs[devBase] != 7 {
		t.Fatalf("device register = %d", f.dev.regs[devBase])
	}
}

func TestDeviceLoadStallsAndDrains(t *testing.T) {
	f := newFixture(t)
	f.dev.regs[devBase+8] = 99
	f.cpu.Store(f.as, 0x20000, phys.Size64, 1) // buffered
	v, err := f.cpu.Load(f.as, 0x20008, phys.Size64)
	if err != nil || v != 99 {
		t.Fatalf("device load = %d, err %v", v, err)
	}
	// Order at device: drain store then load.
	if len(f.dev.log) != 2 || f.dev.log[0] != "S" || f.dev.log[1] != "L" {
		t.Fatalf("device order = %v", f.dev.log)
	}
}

func TestTimingModel(t *testing.T) {
	f := newFixture(t)
	// Prime the TLB so timing below is miss-free.
	f.cpu.Load(f.as, 0x10000, phys.Size64)
	f.cpu.Load(f.as, 0x20000, phys.Size64)
	f.cpu.MB()
	start := f.clock.Now()
	// Cached load: issue(1) + TLB hit(0) + cache(2) = 3 core cycles.
	f.cpu.Load(f.as, 0x10000, phys.Size64)
	if got, want := f.clock.Now()-start, coreFreq.Cycles(3); got != want {
		t.Fatalf("cached load cost %v, want %v", got, want)
	}
	// Uncached load: issue(1 core) + bus 8 cycles.
	start = f.clock.Now()
	f.cpu.Load(f.as, 0x20000, phys.Size64)
	want := coreFreq.Cycles(1) + busFreq.Cycles(8)
	if got := f.clock.Now() - start; got != want {
		t.Fatalf("uncached load cost %v, want %v", got, want)
	}
	// Posted store: issue only.
	start = f.clock.Now()
	f.cpu.Store(f.as, 0x20008, phys.Size64, 5)
	if got, want := f.clock.Now()-start, coreFreq.Cycles(1); got != want {
		t.Fatalf("posted store cost %v, want %v", got, want)
	}
	// MB: issue + MBCycles + one 6-cycle bus store drain.
	start = f.clock.Now()
	f.cpu.MB()
	want = coreFreq.Cycles(1+3) + busFreq.Cycles(6)
	if got := f.clock.Now() - start; got != want {
		t.Fatalf("MB cost %v, want %v", got, want)
	}
}

func TestTLBMissCharged(t *testing.T) {
	f := newFixture(t)
	start := f.clock.Now()
	f.cpu.Load(f.as, 0x10000, phys.Size64) // cold TLB: walk charged
	withMiss := f.clock.Now() - start
	start = f.clock.Now()
	f.cpu.Load(f.as, 0x10000, phys.Size64) // warm
	withHit := f.clock.Now() - start
	if diff, want := withMiss-withHit, coreFreq.Cycles(40); diff != want {
		t.Fatalf("TLB miss penalty %v, want %v", diff, want)
	}
}

func TestFaultsPropagate(t *testing.T) {
	f := newFixture(t)
	_, err := f.cpu.Load(f.as, 0x9_0000, phys.Size64)
	var fault *vm.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("unmapped load error: %v", err)
	}
	// Read-only page rejects stores.
	f.as.Map(0x30000, 0x50000, vm.Read)
	err = f.cpu.Store(f.as, 0x30000, phys.Size64, 1)
	if !errors.As(err, &fault) || fault.Kind != vm.FaultProtection {
		t.Fatalf("store to read-only page: %v", err)
	}
}

func TestPhysAccessPrivilege(t *testing.T) {
	f := newFixture(t)
	var pe *PrivilegeError
	if _, err := f.cpu.PhysLoad(0x40000, phys.Size64); !errors.As(err, &pe) {
		t.Fatalf("user-mode PhysLoad: %v", err)
	}
	if err := f.cpu.PhysStore(0x40000, phys.Size64, 1); !errors.As(err, &pe) {
		t.Fatalf("user-mode PhysStore: %v", err)
	}
	f.cpu.SetMode(Kernel)
	if err := f.cpu.PhysStore(0x40000, phys.Size64, 0x55); err != nil {
		t.Fatal(err)
	}
	v, err := f.cpu.PhysLoad(0x40000, phys.Size64)
	if err != nil || v != 0x55 {
		t.Fatalf("kernel PhysLoad = %#x, err %v", v, err)
	}
	f.cpu.SetMode(PAL)
	if _, err := f.cpu.PhysLoad(0x40000, phys.Size64); err != nil {
		t.Fatalf("PAL-mode PhysLoad: %v", err)
	}
	if f.cpu.Mode() != PAL {
		t.Fatal("mode not sticky")
	}
}

func TestSpinAdvancesClockAndPumpsEvents(t *testing.T) {
	f := newFixture(t)
	fired := false
	f.events.ScheduleFunc(f.clock.Now()+coreFreq.Cycles(50), func(sim.Time) { fired = true })
	f.cpu.Spin(100)
	if !fired {
		t.Fatal("event due during Spin did not fire")
	}
	if got, want := f.clock.Now(), coreFreq.Cycles(100); got != want {
		t.Fatalf("Spin(100) advanced %v, want %v", got, want)
	}
	if f.cpu.Counters().ComputeCycles != 100 {
		t.Fatalf("ComputeCycles = %d", f.cpu.Counters().ComputeCycles)
	}
}

// xchgDev adds RMW support to echoDev for swap tests.
type xchgDev struct{ *echoDev }

func (d *xchgDev) RMW(_ sim.Time, a phys.Addr, _ phys.AccessSize, v uint64) (uint64, int64, error) {
	d.log = append(d.log, "X")
	old := d.regs[a]
	d.regs[a] = v
	return old, 0, nil
}

func TestSwapOnMemory(t *testing.T) {
	f := newFixture(t)
	f.mem.Write(0x40000, phys.Size64, 77)
	old, err := f.cpu.Swap(f.as, 0x10000, phys.Size64, 88)
	if err != nil || old != 77 {
		t.Fatalf("memory swap: old=%d err=%v", old, err)
	}
	if v, _ := f.mem.Read(0x40000, phys.Size64); v != 88 {
		t.Fatalf("memory after swap = %d", v)
	}
	if f.cpu.Counters().RMWs != 1 {
		t.Fatalf("RMW counter = %d", f.cpu.Counters().RMWs)
	}
}

func TestSwapOnDevice(t *testing.T) {
	clock := sim.NewClock()
	mem := phys.New(1 << 20)
	b := bus.New(clock, busFreq, bus.CostConfig{StoreCycles: 6, LoadRequestCycles: 4, LoadReplyCycles: 4, RMWExtraCycles: 2})
	dev := &xchgDev{&echoDev{regs: map[phys.Addr]uint64{}}}
	if err := b.Map(dev, devBase, 1<<16); err != nil {
		t.Fatal(err)
	}
	wb := bus.NewWriteBuffer(b, 8, true)
	c := New(Config{Freq: coreFreq, IssueCycles: 1, CacheHitCycles: 2, TLBMissCycles: 0, TLBEntries: 8}, clock, nil, mem, b, wb)
	as := vm.NewAddressSpace(1, pageSize)
	as.Map(0x20000, devBase, vm.Read|vm.Write)
	dev.regs[devBase] = 3
	c.Store(as, 0x20008, phys.Size64, 1) // buffered; must drain before atomic
	old, err := c.Swap(as, 0x20000, phys.Size64, 4)
	if err != nil || old != 3 {
		t.Fatalf("device swap: old=%d err=%v", old, err)
	}
	if len(dev.log) != 2 || dev.log[0] != "S" || dev.log[1] != "X" {
		t.Fatalf("device order = %v", dev.log)
	}
}

func TestPhysSwapPrivilege(t *testing.T) {
	f := newFixture(t)
	var pe *PrivilegeError
	if _, err := f.cpu.PhysSwap(0x40000, phys.Size64, 1); !errors.As(err, &pe) {
		t.Fatalf("user-mode PhysSwap: %v", err)
	}
	f.cpu.SetMode(Kernel)
	f.mem.Write(0x40000, phys.Size64, 5)
	old, err := f.cpu.PhysSwap(0x40000, phys.Size64, 9)
	if err != nil || old != 5 {
		t.Fatalf("kernel PhysSwap: old=%d err=%v", old, err)
	}
	if v, _ := f.mem.Read(0x40000, phys.Size64); v != 9 {
		t.Fatalf("memory after PhysSwap = %d", v)
	}
	if f.cpu.Events() == nil {
		t.Fatal("Events accessor broken")
	}
}

func TestSwapNeedsReadWrite(t *testing.T) {
	f := newFixture(t)
	f.as.Map(0x30000, 0x50000, vm.Read) // read-only
	if _, err := f.cpu.Swap(f.as, 0x30000, phys.Size64, 1); err == nil {
		t.Fatal("swap on read-only page succeeded")
	}
	f.as.Map(0x38000, 0x58000, vm.Write) // write-only
	if _, err := f.cpu.Swap(f.as, 0x38000, phys.Size64, 1); err == nil {
		t.Fatal("swap on write-only page succeeded")
	}
}

func TestModeString(t *testing.T) {
	if User.String() != "user" || Kernel.String() != "kernel" || PAL.String() != "pal" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode renders empty")
	}
}

func TestStatsCounting(t *testing.T) {
	f := newFixture(t)
	f.cpu.Load(f.as, 0x10000, phys.Size64)
	f.cpu.Store(f.as, 0x10000, phys.Size64, 1)
	f.cpu.Store(f.as, 0x20000, phys.Size64, 1)
	f.cpu.MB()
	s := f.cpu.Counters()
	if s.Instructions != 4 || s.Loads != 1 || s.Stores != 2 || s.Barriers != 1 {
		t.Fatalf("counters = %+v", s)
	}
	if s.DeviceAccess != 1 || s.MemoryAccess != 2 {
		t.Fatalf("access split = %+v", s)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero frequency accepted")
		}
	}()
	New(Config{}, sim.NewClock(), nil, nil, nil, nil)
}
