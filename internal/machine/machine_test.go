package machine

import (
	"strings"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/kernel"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

func TestPresetsBuild(t *testing.T) {
	modes := []struct {
		mode   dma.Mode
		seqLen int
	}{
		{dma.ModePaired, 0}, {dma.ModeKeyed, 0}, {dma.ModeExtended, 0},
		{dma.ModeRepeated, 3}, {dma.ModeRepeated, 4}, {dma.ModeRepeated, 5},
		{dma.ModeMappedOut, 0},
	}
	for _, mc := range modes {
		m, err := New(Alpha3000TC(mc.mode, mc.seqLen))
		if err != nil {
			t.Fatalf("%v/%d: %v", mc.mode, mc.seqLen, err)
		}
		if m.Engine.Config().Mode != mc.mode {
			t.Fatalf("engine mode = %v", m.Engine.Config().Mode)
		}
	}
	for _, f := range []sim.Hz{33 * sim.MHz, 66 * sim.MHz} {
		cfg := PCI(dma.ModeExtended, 0, f)
		if cfg.BusFreq != f {
			t.Fatalf("PCI preset bus freq = %v", cfg.BusFreq)
		}
		MustNew(cfg)
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew on invalid config did not panic")
		}
	}()
	cfg := Alpha3000TC(dma.ModeRepeated, 7) // invalid SeqLen
	MustNew(cfg)
}

func TestEngineWindowsDecoded(t *testing.T) {
	m := MustNew(Alpha3000TC(dma.ModeKeyed, 0))
	for _, a := range []phys.Addr{ShadowBase, CtxPageBase, ControlBase, AtomicBase} {
		if !m.Bus.IsDevice(a) {
			t.Errorf("window at %v not decoded", a)
		}
	}
	if m.Bus.IsDevice(0x1000) {
		t.Error("main memory decoded as device")
	}
	if MaxNodes < 2 {
		t.Fatalf("MaxNodes = %d; the cluster experiments need at least 2", MaxNodes)
	}
}

func TestEndToEndKernelDMA(t *testing.T) {
	// A process allocates two pages, fills the source via stores, traps
	// into the kernel for a DMA, and the data lands in the destination.
	m := MustNew(Alpha3000TC(dma.ModePaired, 0))
	const srcVA, dstVA = vm.VAddr(0x10000), vm.VAddr(0x20000)
	var status uint64
	p := m.NewProcess("user", func(ctx *proc.Context) error {
		for i := 0; i < 8; i++ {
			if err := ctx.Store(srcVA+vm.VAddr(8*i), phys.Size64, uint64(0x1111*i)); err != nil {
				return err
			}
		}
		st, err := ctx.Syscall(1 /* kernel.SysDMA */, uint64(srcVA), uint64(dstVA), 64)
		status = st
		return err
	})
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), srcVA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), dstVA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(proc.NewRoundRobin(4), 10_000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatalf("process error: %v", p.Err())
	}
	if status == dma.StatusFailure {
		t.Fatal("kernel DMA rejected")
	}
	m.Settle()
	// Verify through the destination mapping.
	pa, err := p.AddressSpace().Translate(dstVA+8, vm.AccessLoad)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Mem.Read(pa, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1111 {
		t.Fatalf("destination word = %#x, want 0x1111", v)
	}
}

func TestKernelDMATimingMatchesTable1(t *testing.T) {
	// Table 1: kernel-level DMA = 18.6 µs on the calibrated preset.
	// Accept ±10%: the model is calibrated, not curve-fitted.
	m := MustNew(Alpha3000TC(dma.ModePaired, 0))
	const srcVA, dstVA = vm.VAddr(0x10000), vm.VAddr(0x20000)
	var cost sim.Time
	p := m.NewProcess("user", func(ctx *proc.Context) error {
		start := m.Clock.Now()
		_, err := ctx.Syscall(1, uint64(srcVA), uint64(dstVA), 64)
		cost = m.Clock.Now() - start
		return err
	})
	m.Kernel.AllocPage(p.AddressSpace(), srcVA, vm.Read|vm.Write)
	m.Kernel.AllocPage(p.AddressSpace(), dstVA, vm.Read|vm.Write)
	if err := m.Run(proc.NewRoundRobin(4), 10_000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	lo, hi := 16740*sim.Nanosecond, 20460*sim.Nanosecond
	if cost < lo || cost > hi {
		t.Fatalf("kernel DMA initiation = %v, want 18.6µs ±10%%", cost)
	}
}

func TestNullSyscallInLmbenchBand(t *testing.T) {
	// §2.2: "the overhead of an empty system call of commercial UNIX-like
	// operating systems ranges between 1,000 and 5,000 processor cycles".
	m := MustNew(Alpha3000TC(dma.ModePaired, 0))
	var cost sim.Time
	m.NewProcess("user", func(ctx *proc.Context) error {
		start := m.Clock.Now()
		_, err := ctx.Syscall(0 /* SysNull */)
		cost = m.Clock.Now() - start
		return err
	})
	if err := m.Run(proc.NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	cycles := m.Cfg.CPU.Freq.CyclesIn(cost)
	if cycles < 1000 || cycles > 5000 {
		t.Fatalf("null syscall = %d cycles, outside the lmbench band", cycles)
	}
}

func TestSetupPages(t *testing.T) {
	m := MustNew(Alpha3000TC(dma.ModeExtended, 0))
	p := m.NewProcess("user", func(ctx *proc.Context) error { return nil })
	if _, _, err := m.Kernel.AssignContext(p); err != nil {
		t.Fatal(err)
	}
	frames, err := m.SetupPages(p, 0x10000, 3, vm.Read|vm.Write)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("frames = %v", frames)
	}
	// Each page is mapped twice: data + shadow.
	as := p.AddressSpace()
	for i := 0; i < 3; i++ {
		va := vm.VAddr(0x10000 + uint64(i)*m.Cfg.PageSize)
		for _, alias := range []vm.VAddr{va, kernel.ShadowVA(va)} {
			if _, ok := as.Lookup(alias); !ok {
				t.Fatalf("page %d: %v not mapped", i, alias)
			}
		}
	}
	m.Run(proc.NewRoundRobin(1), 10)
}

func TestEraPresets(t *testing.T) {
	eras := []struct {
		cfg  Config
		trap int64
	}{
		{Workstation1994(dma.ModePaired, 0), 1500},
		{Alpha3000TC(dma.ModePaired, 0), 2150},
		{Workstation2000(dma.ModePaired, 0), 4300},
	}
	var prevCPU sim.Hz
	for _, e := range eras {
		MustNew(e.cfg) // must assemble
		if got := e.cfg.Kernel.SyscallEntryCycles + e.cfg.Kernel.SyscallExitCycles; got != e.trap {
			t.Errorf("%s: trap = %d cycles, want %d", e.cfg.Name, got, e.trap)
		}
		if e.cfg.CPU.Freq <= prevCPU {
			t.Errorf("%s: CPU %v not faster than previous era", e.cfg.Name, e.cfg.CPU.Freq)
		}
		prevCPU = e.cfg.CPU.Freq
	}
	if Workstation2000(dma.ModePaired, 0).BusFreq != 66*sim.MHz {
		t.Error("2000 era should ride PCI-66")
	}
}

func TestConfigNamesPresets(t *testing.T) {
	if !strings.Contains(Alpha3000TC(dma.ModePaired, 0).Name, "Alpha") {
		t.Fatal("preset name missing")
	}
	if !strings.Contains(PCI(dma.ModePaired, 0, 66*sim.MHz).Name, "66MHz") {
		t.Fatalf("PCI name = %q", PCI(dma.ModePaired, 0, 66*sim.MHz).Name)
	}
}
