// atomics: user-level atomic operations (§3.5) building real
// coordination primitives.
//
// Four processes share one page. Phase 1 bumps a shared counter with
// user-level fetch_and_add — no locks, no kernel. Phase 2 guards a
// deliberately non-atomic read-modify-write with a compare_and_swap
// spinlock. Phase 3 measures the user-level vs kernel-initiated cost of
// the same engine operation.
//
// Run with: go run ./examples/atomics
package main

import (
	"fmt"
	"log"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

const (
	pageVA    = vm.VAddr(0x50000)
	counterVA = pageVA      // phase 1 counter
	lockVA    = pageVA + 64 // phase 2 lock word (32-bit)
	guardedVA = pageVA + 128
	procs     = 4
	perProc   = 100
)

func main() {
	m := machine.MustNew(machine.Alpha3000TC(dma.ModeExtended, 0))

	var frame phys.Addr
	for i := 0; i < procs; i++ {
		i := i
		p := m.NewProcess(fmt.Sprintf("worker%d", i), worker)
		if i == 0 {
			f, err := m.Kernel.AllocPage(p.AddressSpace(), pageVA, vm.Read|vm.Write)
			if err != nil {
				log.Fatal(err)
			}
			frame = f
		} else if err := m.Kernel.MapFrame(p.AddressSpace(), pageVA, frame, vm.Read|vm.Write); err != nil {
			log.Fatal(err)
		}
		if err := userdma.SetupAtomics(m, p, pageVA); err != nil {
			log.Fatal(err)
		}
	}

	// Random preemption: the adversarial schedule for atomicity bugs.
	if err := m.Run(proc.NewRandom(2024), 100_000_000); err != nil {
		log.Fatal(err)
	}
	for _, p := range m.Runner.Processes() {
		if p.Err() != nil {
			log.Fatalf("%s: %v", p.Name(), p.Err())
		}
	}

	counter, _ := m.Mem.Read(frame, phys.Size64)
	guarded, _ := m.Mem.Read(frame+128, phys.Size64)
	fmt.Printf("phase 1 — fetch_and_add counter: %d (want %d)\n", counter, procs*perProc)
	fmt.Printf("phase 2 — spinlock-guarded counter: %d (want %d)\n", guarded, procs*perProc)
	fmt.Printf("engine atomic operations executed: %d, kernel crossings: %d\n",
		m.Engine.Counters().AtomicOps, m.Kernel.Counters().Syscalls)

	// Phase 3: latency comparison on a fresh machine.
	userCost, kernelCost := measureCosts()
	fmt.Printf("\nphase 3 — one fetch_and_add: user-level %v, via syscall %v (%.0fx)\n",
		userCost, kernelCost, float64(kernelCost)/float64(userCost))
}

func worker(c *proc.Context) error {
	// Phase 1: lock-free shared counter.
	for i := 0; i < perProc; i++ {
		if _, err := userdma.FetchAdd(c, counterVA, 1); err != nil {
			return err
		}
	}
	// Phase 2: non-atomic increment under a CAS spinlock.
	lock := &userdma.SpinLock{VA: lockVA, MaxAttempts: 1 << 20}
	for i := 0; i < perProc; i++ {
		if err := lock.Lock(c); err != nil {
			return err
		}
		v, err := c.Load(guardedVA, phys.Size64)
		if err != nil {
			return err
		}
		c.Spin(20) // widen the race window on purpose
		if err := c.Store(guardedVA, phys.Size64, v+1); err != nil {
			return err
		}
		if err := lock.Unlock(c); err != nil {
			return err
		}
	}
	return nil
}

func measureCosts() (user, kern sim.Time) {
	m := machine.MustNew(machine.Alpha3000TC(dma.ModeExtended, 0))
	p := m.NewProcess("timer", func(c *proc.Context) error {
		if _, err := userdma.FetchAdd(c, counterVA, 0); err != nil { // warm TLB
			return err
		}
		start := m.Clock.Now()
		for i := 0; i < 100; i++ {
			if _, err := userdma.FetchAdd(c, counterVA, 1); err != nil {
				return err
			}
		}
		user = (m.Clock.Now() - start) / 100
		start = m.Clock.Now()
		for i := 0; i < 100; i++ {
			if _, err := userdma.KernelFetchAdd(c, counterVA, 1); err != nil {
				return err
			}
		}
		kern = (m.Clock.Now() - start) / 100
		return nil
	})
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), pageVA, vm.Read|vm.Write); err != nil {
		log.Fatal(err)
	}
	if err := userdma.SetupAtomics(m, p, pageVA); err != nil {
		log.Fatal(err)
	}
	if err := m.Run(proc.NewRoundRobin(1<<20), 10_000_000); err != nil {
		log.Fatal(err)
	}
	if p.Err() != nil {
		log.Fatal(p.Err())
	}
	return user, kern
}
