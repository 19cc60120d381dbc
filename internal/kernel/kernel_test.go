package kernel_test

import (
	"errors"
	"strings"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/kernel"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

func newMachine(t *testing.T, mode dma.Mode) *machine.Machine {
	t.Helper()
	return machine.MustNew(machine.Alpha3000TC(mode, 5))
}

// idle spawns a process that exits immediately — a body for tests that
// only exercise kernel setup APIs.
func idle(ctx *proc.Context) error { return nil }

func TestShadowVAConventions(t *testing.T) {
	if kernel.ShadowVA(0x10000) != kernel.ShadowVABase+0x10000 {
		t.Fatal("ShadowVA wrong")
	}
	a := kernel.AtomicVA(0x10000, dma.AtomicCAS)
	if a != kernel.AtomicVABase+vm.VAddr(uint64(dma.AtomicCAS)<<32)+0x10000 {
		t.Fatalf("AtomicVA = %v", a)
	}
}

func TestAllocPageExhaustion(t *testing.T) {
	m := newMachine(t, dma.ModePaired)
	p := m.NewProcess("u", idle)
	as := p.AddressSpace()
	pages := (uint64(m.Cfg.MemSize) - uint64(m.Cfg.Kernel.UserFrameBase)) / m.Cfg.PageSize
	for i := uint64(0); i < pages; i++ {
		if _, err := m.Kernel.AllocPage(as, vm.VAddr(0x10000+i*m.Cfg.PageSize), vm.Read); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	if _, err := m.Kernel.AllocPage(as, 0x9000000, vm.Read); err == nil {
		t.Fatal("allocation beyond physical memory succeeded")
	}
	m.Run(proc.NewRoundRobin(1), 10)
}

func TestMapShadowInheritsProtection(t *testing.T) {
	m := newMachine(t, dma.ModePaired)
	p := m.NewProcess("u", idle)
	as := p.AddressSpace()
	frame, err := m.Kernel.AllocPage(as, 0x10000, vm.Read) // read-only page
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel.MapShadow(p, 0x10000); err != nil {
		t.Fatal(err)
	}
	pte, ok := as.Lookup(kernel.ShadowVA(0x10000))
	if !ok {
		t.Fatal("shadow page not mapped")
	}
	if pte.Prot != vm.Read {
		t.Fatalf("shadow prot = %v, want read-only (inherited)", pte.Prot)
	}
	if pte.Frame != m.Engine.Config().Shadow(frame, 0) {
		t.Fatalf("shadow frame = %v", pte.Frame)
	}
	// Unmapped page cannot get a shadow.
	if err := m.Kernel.MapShadow(p, 0x90000); err == nil {
		t.Fatal("MapShadow of unmapped page succeeded")
	}
	m.Run(proc.NewRoundRobin(1), 10)
}

func TestMapShadowUsesAssignedContext(t *testing.T) {
	m := newMachine(t, dma.ModeExtended)
	p := m.NewProcess("u", idle)
	ctx, _, err := m.Kernel.AssignContext(p)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := m.Kernel.AllocPage(p.AddressSpace(), 0x10000, vm.Read|vm.Write)
	if err := m.Kernel.MapShadow(p, 0x10000); err != nil {
		t.Fatal(err)
	}
	pte, _ := p.AddressSpace().Lookup(kernel.ShadowVA(0x10000))
	want := m.Engine.Config().Shadow(frame, ctx)
	if pte.Frame != want {
		t.Fatalf("shadow frame = %v, want %v (ctx %d burned in)", pte.Frame, want, ctx)
	}
	m.Run(proc.NewRoundRobin(1), 10)
}

func TestMapAtomicNeedsReadWrite(t *testing.T) {
	m := newMachine(t, dma.ModePaired)
	p := m.NewProcess("u", idle)
	m.Kernel.AllocPage(p.AddressSpace(), 0x10000, vm.Read)
	if err := m.Kernel.MapAtomic(p, 0x10000); err == nil {
		t.Fatal("MapAtomic on read-only page succeeded")
	}
	m.Kernel.AllocPage(p.AddressSpace(), 0x20000, vm.Read|vm.Write)
	if err := m.Kernel.MapAtomic(p, 0x20000); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel.MapAtomic(p, 0x99990000); err == nil {
		t.Fatal("MapAtomic on unmapped page succeeded")
	}
	// Three aliases of the writable page, none of the read-only one.
	as := p.AddressSpace()
	for _, op := range []int{dma.AtomicAdd, dma.AtomicSwap, dma.AtomicCAS} {
		if _, ok := as.Lookup(kernel.AtomicVA(0x20000, op)); !ok {
			t.Fatalf("atomic op %d alias of the writable page not mapped", op)
		}
		if _, ok := as.Lookup(kernel.AtomicVA(0x10000, op)); ok {
			t.Fatalf("atomic op %d alias of the read-only page mapped", op)
		}
	}
	m.Run(proc.NewRoundRobin(1), 10)
}

func TestAssignContextKeyed(t *testing.T) {
	m := newMachine(t, dma.ModeKeyed)
	p := m.NewProcess("u", idle)
	ctx, key, err := m.Kernel.AssignContext(p)
	if err != nil {
		t.Fatal(err)
	}
	if key == 0 {
		t.Fatal("keyed mode must hand out a non-zero key")
	}
	// Context page mapped into the process.
	pte, ok := p.AddressSpace().Lookup(kernel.CtxPageVA)
	if !ok || pte.Frame != m.Engine.Config().CtxPage(ctx) {
		t.Fatalf("context page mapping: ok=%v frame=%v", ok, pte.Frame)
	}
	// Idempotent.
	ctx2, key2, err := m.Kernel.AssignContext(p)
	if err != nil || ctx2 != ctx || key2 != key {
		t.Fatalf("second AssignContext: ctx=%d key=%#x err=%v", ctx2, key2, err)
	}
	if got, ok := m.Kernel.ContextOf(p); !ok || got != ctx {
		t.Fatal("ContextOf wrong")
	}
	m.Run(proc.NewRoundRobin(1), 10)
}

func TestAssignContextExhaustion(t *testing.T) {
	m := newMachine(t, dma.ModeKeyed) // 8 contexts in the preset
	var procs []*proc.Process
	for i := 0; i < m.Engine.NumContexts(); i++ {
		p := m.NewProcess("u", idle)
		procs = append(procs, p)
		if _, _, err := m.Kernel.AssignContext(p); err != nil {
			t.Fatalf("context %d: %v", i, err)
		}
	}
	extra := m.NewProcess("overflow", idle)
	if _, _, err := m.Kernel.AssignContext(extra); err == nil {
		t.Fatal("ninth context assignment succeeded")
	}
	// Releasing one frees it for the overflow process (§3.2: "the rest
	// will have to go through the kernel" — until a context frees up).
	m.Kernel.ReleaseContext(procs[3])
	if _, _, err := m.Kernel.AssignContext(extra); err != nil {
		t.Fatalf("assignment after release: %v", err)
	}
	m.Kernel.ReleaseContext(extra)
	m.Kernel.ReleaseContext(extra) // double release: no-op
	m.Run(proc.NewRoundRobin(1), 100)
}

func TestContextAutoReleasedOnExit(t *testing.T) {
	// A process's register context is reclaimed at exit — ordinary
	// teardown, so a later process can claim it without operator help.
	m := newMachine(t, dma.ModeKeyed)
	var holders []*proc.Process
	for i := 0; i < m.Engine.NumContexts(); i++ {
		p := m.NewProcess("holder", idle)
		holders = append(holders, p)
		if _, _, err := m.Kernel.AssignContext(p); err != nil {
			t.Fatal(err)
		}
	}
	// Run all holders to completion: their contexts free up.
	if err := m.Run(proc.NewRoundRobin(1), 1000); err != nil {
		t.Fatal(err)
	}
	late := m.NewProcess("late", idle)
	ctx, key, err := m.Kernel.AssignContext(late)
	if err != nil {
		t.Fatalf("context not reclaimed at exit: %v", err)
	}
	if key == 0 || ctx < 0 {
		t.Fatalf("bad reassignment ctx=%d key=%#x", ctx, key)
	}
	// The old holder's key must no longer work at the engine.
	if _, ok := m.Kernel.ContextOf(holders[0]); ok {
		t.Fatal("exited process still owns a context")
	}
	m.Run(proc.NewRoundRobin(1), 100)
}

func TestDistinctKeysPerContext(t *testing.T) {
	m := newMachine(t, dma.ModeKeyed)
	seen := map[uint64]bool{}
	for i := 0; i < m.Engine.NumContexts(); i++ {
		p := m.NewProcess("u", idle)
		_, key, err := m.Kernel.AssignContext(p)
		if err != nil {
			t.Fatal(err)
		}
		if seen[key] {
			t.Fatal("duplicate key handed out")
		}
		seen[key] = true
	}
	m.Run(proc.NewRoundRobin(1), 100)
}

func TestMapOutOwnershipCheck(t *testing.T) {
	m := newMachine(t, dma.ModeMappedOut)
	p := m.NewProcess("u", idle)
	m.Kernel.AllocPage(p.AddressSpace(), 0x10000, vm.Read) // read-only: not enough
	if err := m.Kernel.MapOut(p, 0x10000, 0x80000); err == nil {
		t.Fatal("MapOut of read-only page succeeded")
	}
	m.Kernel.AllocPage(p.AddressSpace(), 0x20000, vm.Read|vm.Write)
	if err := m.Kernel.MapOut(p, 0x20000, 0x80000); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel.MapOut(p, 0xdead0000, 0x80000); err == nil {
		t.Fatal("MapOut of unmapped page succeeded")
	}
	m.Run(proc.NewRoundRobin(1), 10)
}

func TestMaterializeTable(t *testing.T) {
	// The kernel can encode a process's mappings — including shadow and
	// atomic aliases — as a hardware-walkable table, and the walk agrees
	// with the architectural map.
	m := newMachine(t, dma.ModeExtended)
	p := m.NewProcess("u", idle)
	if _, _, err := m.Kernel.AssignContext(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), 0x10000, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel.MapShadow(p, 0x10000); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel.MapAtomic(p, 0x10000); err != nil {
		t.Fatal(err)
	}
	tbl, err := m.Kernel.MaterializeTable(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range []vm.VAddr{
		0x10000,
		kernel.ShadowVA(0x10000),
		kernel.AtomicVA(0x10000, dma.AtomicAdd),
	} {
		want, err := p.AddressSpace().Translate(va, vm.AccessLoad)
		if err != nil {
			t.Fatalf("%v: %v", va, err)
		}
		got, _, err := tbl.Walk(va, vm.AccessLoad)
		if err != nil {
			t.Fatalf("walk %v: %v", va, err)
		}
		if got != want {
			t.Fatalf("walk %v = %v, software says %v", va, got, want)
		}
	}
	m.Run(proc.NewRoundRobin(1), 10)
}

func TestPriorWorkHooksMarkKernelModified(t *testing.T) {
	m := newMachine(t, dma.ModePaired)
	if m.Kernel.KernelModified() {
		t.Fatal("fresh kernel reports modified")
	}
	m.Kernel.EnableSHRIMP2Hook()
	m.Kernel.EnableSHRIMP2Hook() // idempotent
	if !m.Kernel.KernelModified() {
		t.Fatal("SHRIMP-2 hook not reported as kernel modification")
	}
	m2 := newMachine(t, dma.ModePaired)
	m2.Kernel.EnableFLASHHook()
	m2.Kernel.EnableFLASHHook()
	if !m2.Kernel.KernelModified() {
		t.Fatal("FLASH hook not reported as kernel modification")
	}
}

func TestSysDMAMovesData(t *testing.T) {
	m := newMachine(t, dma.ModePaired)
	var status uint64
	p := m.NewProcess("u", func(ctx *proc.Context) error {
		for i := 0; i < 4; i++ {
			if err := ctx.Store(0x10000+vm.VAddr(8*i), phys.Size64, 0xfeed+uint64(i)); err != nil {
				return err
			}
		}
		st, err := ctx.Syscall(kernel.SysDMA, 0x10000, 0x20000, 32)
		status = st
		return err
	})
	m.Kernel.AllocPage(p.AddressSpace(), 0x10000, vm.Read|vm.Write)
	m.Kernel.AllocPage(p.AddressSpace(), 0x20000, vm.Read|vm.Write)
	if err := m.Run(proc.NewRoundRobin(4), 10_000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil || status == dma.StatusFailure {
		t.Fatalf("err=%v status=%#x", p.Err(), status)
	}
	m.Settle()
	pa, _ := p.AddressSpace().Translate(0x20000, vm.AccessLoad)
	if v, _ := m.Mem.Read(pa, phys.Size64); v != 0xfeed {
		t.Fatalf("dst word = %#x", v)
	}
	if m.Kernel.Counters().DMASyscalls != 1 {
		t.Fatalf("stats = %+v", m.Kernel.Counters())
	}
}

func TestSysDMARejectsBadRights(t *testing.T) {
	cases := []struct {
		name    string
		srcProt vm.Prot
		dstProt vm.Prot
	}{
		{"unreadable source", vm.Write, vm.Read | vm.Write},
		{"unwritable destination", vm.Read | vm.Write, vm.Read},
	}
	for _, c := range cases {
		m := newMachine(t, dma.ModePaired)
		var gotErr error
		var status uint64
		p := m.NewProcess("u", func(ctx *proc.Context) error {
			status, gotErr = ctx.Syscall(kernel.SysDMA, 0x10000, 0x20000, 32)
			return nil
		})
		m.Kernel.AllocPage(p.AddressSpace(), 0x10000, c.srcProt)
		m.Kernel.AllocPage(p.AddressSpace(), 0x20000, c.dstProt)
		if err := m.Run(proc.NewRoundRobin(4), 10_000); err != nil {
			t.Fatal(err)
		}
		var fault *vm.Fault
		if !errors.As(gotErr, &fault) || status != dma.StatusFailure {
			t.Fatalf("%s: err=%v status=%#x", c.name, gotErr, status)
		}
		if m.Engine.Counters().Started != 0 {
			t.Fatalf("%s: engine started a transfer", c.name)
		}
	}
}

func TestSysDMARejectsRangeSpill(t *testing.T) {
	// First page writable, second page read-only: a transfer crossing
	// into it must be refused by check_size even though the first
	// address translates fine.
	m := newMachine(t, dma.ModePaired)
	var gotErr error
	p := m.NewProcess("u", func(ctx *proc.Context) error {
		_, gotErr = ctx.Syscall(kernel.SysDMA, 0x10000, 0x20000, uint64(m.Cfg.PageSize)+64)
		return nil
	})
	as := p.AddressSpace()
	m.Kernel.AllocPage(as, 0x10000, vm.Read|vm.Write)
	m.Kernel.AllocPage(as, 0x10000+vm.VAddr(m.Cfg.PageSize), vm.Read|vm.Write)
	m.Kernel.AllocPage(as, 0x20000, vm.Read|vm.Write)
	m.Kernel.AllocPage(as, 0x20000+vm.VAddr(m.Cfg.PageSize), vm.Read) // read-only spill target
	if err := m.Run(proc.NewRoundRobin(4), 10_000); err != nil {
		t.Fatal(err)
	}
	var fault *vm.Fault
	if !errors.As(gotErr, &fault) || fault.Kind != vm.FaultProtection {
		t.Fatalf("range spill: %v", gotErr)
	}
}

func TestSysAtomic(t *testing.T) {
	m := newMachine(t, dma.ModePaired)
	var got uint64
	p := m.NewProcess("u", func(ctx *proc.Context) error {
		if err := ctx.Store(0x10000, phys.Size64, 100); err != nil {
			return err
		}
		old, err := ctx.Syscall(kernel.SysAtomic, uint64(dma.AtomicAdd), 0x10000, 5)
		if err != nil {
			return err
		}
		got = old
		return nil
	})
	m.Kernel.AllocPage(p.AddressSpace(), 0x10000, vm.Read|vm.Write)
	if err := m.Run(proc.NewRoundRobin(4), 10_000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if got != 100 {
		t.Fatalf("fetch_and_add returned %d", got)
	}
	pa, _ := p.AddressSpace().Translate(0x10000, vm.AccessLoad)
	if v, _ := m.Mem.Read(pa, phys.Size64); v != 105 {
		t.Fatalf("cell = %d", v)
	}
}

func TestSyscallValidation(t *testing.T) {
	m := newMachine(t, dma.ModePaired)
	var errs []error
	m.NewProcess("u", func(ctx *proc.Context) error {
		_, e1 := ctx.Syscall(99)
		_, e2 := ctx.Syscall(kernel.SysDMA, 1)
		_, e3 := ctx.Syscall(kernel.SysAtomic)
		errs = append(errs, e1, e2, e3)
		return nil
	})
	if err := m.Run(proc.NewRoundRobin(4), 10_000); err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e == nil {
			t.Fatalf("bad syscall %d accepted", i)
		}
	}
	if m.Kernel.Counters().Syscalls != 3 {
		t.Fatalf("syscall count = %d", m.Kernel.Counters().Syscalls)
	}
}

func TestMapRemoteValidation(t *testing.T) {
	m := newMachine(t, dma.ModeExtended)
	p := m.NewProcess("u", idle)
	// Unaligned remote offset.
	if err := m.Kernel.MapRemote(p, 0x20000, 1, 0x80004); err == nil {
		t.Fatal("unaligned MapRemote accepted")
	}
	// Node/offset beyond the encodable remote window.
	if err := m.Kernel.MapRemote(p, 0x20000, 1<<20, 0); err == nil {
		t.Fatal("giant node id accepted")
	}
	// Valid mapping is write-only.
	if err := m.Kernel.MapRemote(p, 0x20000, 1, 0x80000); err != nil {
		t.Fatal(err)
	}
	pte, ok := p.AddressSpace().Lookup(0x20000)
	if !ok || pte.Prot != vm.Write {
		t.Fatalf("remote page prot = %v", pte.Prot)
	}
	// MapFrame shares an existing frame.
	if err := m.Kernel.MapFrame(p.AddressSpace(), 0x30000, 0x40000, vm.Read); err != nil {
		t.Fatal(err)
	}
	m.Run(proc.NewRoundRobin(1), 10)
}

func TestSysDMAWaitPaths(t *testing.T) {
	m := newMachine(t, dma.ModeExtended)
	var noTransfer, afterDone uint64
	p := m.NewProcess("u", func(ctx *proc.Context) error {
		// Nothing outstanding: failure status, no sleep.
		st, err := ctx.Syscall(kernel.SysDMAWait)
		if err != nil {
			return err
		}
		noTransfer = st
		// Initiate via ext-shadow, then block until completion.
		if err := ctx.Store(kernel.ShadowVA(0x20000), phys.Size64, 256); err != nil {
			return err
		}
		if _, err := ctx.Load(kernel.ShadowVA(0x10000), phys.Size64); err != nil {
			return err
		}
		if _, err := ctx.Syscall(kernel.SysDMAWait); err != nil {
			return err
		}
		// A second wait on the now-complete transfer returns without
		// sleeping.
		st, err = ctx.Syscall(kernel.SysDMAWait)
		afterDone = st
		return err
	})
	if _, _, err := m.Kernel.AssignContext(p); err != nil {
		t.Fatal(err)
	}
	for _, va := range []vm.VAddr{0x10000, 0x20000} {
		if _, err := m.Kernel.AllocPage(p.AddressSpace(), va, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		if err := m.Kernel.MapShadow(p, va); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(proc.NewRoundRobin(8), 100_000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if noTransfer != dma.StatusFailure {
		t.Fatalf("wait with nothing outstanding = %#x", noTransfer)
	}
	if afterDone != 0 {
		t.Fatalf("wait on completed transfer = %#x", afterDone)
	}
	tr := m.Engine.LastTransfer()
	if tr == nil || !tr.Done(m.Clock.Now()) {
		t.Fatal("transfer not completed by the blocking wait")
	}
}

func TestPALDMAEndToEnd(t *testing.T) {
	// §2.7: the PAL call executes the two-access sequence uninterrupted;
	// with shadow pages set up, a user process moves data in one call.
	m := newMachine(t, dma.ModePaired)
	m.Kernel.InstallPALDMA()
	var status uint64
	p := m.NewProcess("u", func(ctx *proc.Context) error {
		for i := 0; i < 4; i++ {
			if err := ctx.Store(0x10000+vm.VAddr(8*i), phys.Size64, 0xabc0+uint64(i)); err != nil {
				return err
			}
		}
		st, err := ctx.PALCall(kernel.PALUserDMA, 0x10000, 0x20000, 32)
		status = st
		return err
	})
	m.Kernel.AllocPage(p.AddressSpace(), 0x10000, vm.Read|vm.Write)
	m.Kernel.AllocPage(p.AddressSpace(), 0x20000, vm.Read|vm.Write)
	m.Kernel.MapShadow(p, 0x10000)
	m.Kernel.MapShadow(p, 0x20000)
	if err := m.Run(proc.NewRoundRobin(4), 10_000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil || status == dma.StatusFailure {
		t.Fatalf("err=%v status=%#x", p.Err(), status)
	}
	m.Settle()
	pa, _ := p.AddressSpace().Translate(0x20000, vm.AccessLoad)
	if v, _ := m.Mem.Read(pa, phys.Size64); v != 0xabc0 {
		t.Fatalf("dst word = %#x", v)
	}
	// Bad arity surfaces an error, not a hang.
	m2 := newMachine(t, dma.ModePaired)
	m2.Kernel.InstallPALDMA()
	var palErr error
	m2.NewProcess("u", func(ctx *proc.Context) error {
		_, palErr = ctx.PALCall(kernel.PALUserDMA, 1)
		return nil
	})
	if err := m2.Run(proc.NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	if palErr == nil || !strings.Contains(palErr.Error(), "wants") {
		t.Fatalf("PAL arity error = %v", palErr)
	}
}
