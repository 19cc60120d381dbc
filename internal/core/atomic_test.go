package userdma

import (
	"strings"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

const cellVA = vm.VAddr(0x50000)

// atomicWorld: one machine, shared page mapped rw into every process,
// atomic aliases installed per process.
func atomicWorld(t *testing.T, nProcs int, bodies func(i int) proc.Body) (*machine.Machine, phys.Addr) {
	t.Helper()
	m := machine.MustNew(machine.Alpha3000TC(dma.ModeExtended, 0))
	var frame phys.Addr
	for i := 0; i < nProcs; i++ {
		p := m.NewProcess("p", bodies(i))
		if i == 0 {
			f, err := m.Kernel.AllocPage(p.AddressSpace(), cellVA, vm.Read|vm.Write)
			if err != nil {
				t.Fatal(err)
			}
			frame = f
		} else if err := m.Kernel.MapFrame(p.AddressSpace(), cellVA, frame, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		if err := SetupAtomics(m, p, cellVA); err != nil {
			t.Fatal(err)
		}
	}
	return m, frame
}

func TestFetchAdd(t *testing.T) {
	var old1, old2 uint64
	m, frame := atomicWorld(t, 1, func(int) proc.Body {
		return func(c *proc.Context) error {
			var err error
			if old1, err = FetchAdd(c, cellVA, 5); err != nil {
				return err
			}
			old2, err = FetchAdd(c, cellVA+8, 1) // second cell on same page
			return err
		}
	})
	if err := m.Run(proc.NewRoundRobin(4), 1000); err != nil {
		t.Fatal(err)
	}
	if old1 != 0 || old2 != 0 {
		t.Fatalf("old values = %d, %d", old1, old2)
	}
	if v, _ := m.Mem.Read(frame, phys.Size64); v != 5 {
		t.Fatalf("cell = %d", v)
	}
	if v, _ := m.Mem.Read(frame+8, phys.Size64); v != 1 {
		t.Fatalf("cell 2 = %d", v)
	}
}

func TestFetchStoreAndCAS(t *testing.T) {
	m, frame := atomicWorld(t, 1, func(int) proc.Body {
		return func(c *proc.Context) error {
			if _, err := FetchStore(c, cellVA, 42); err != nil {
				return err
			}
			old, err := FetchStore(c, cellVA, 7)
			if err != nil {
				return err
			}
			if old != 42 {
				t.Errorf("FetchStore old = %d", old)
			}
			// CAS success then failure (32-bit cell at offset 16).
			if _, err := FetchStore32(c, cellVA+16, 5); err != nil {
				return err
			}
			old32, ok, err := CompareSwap(c, cellVA+16, 5, 6)
			if err != nil || !ok || old32 != 5 {
				t.Errorf("CAS success path: old=%d ok=%v err=%v", old32, ok, err)
			}
			old32, ok, err = CompareSwap(c, cellVA+16, 5, 9)
			if err != nil || ok || old32 != 6 {
				t.Errorf("CAS failure path: old=%d ok=%v err=%v", old32, ok, err)
			}
			return nil
		}
	})
	if err := m.Run(proc.NewRoundRobin(4), 1000); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem.Read(frame, phys.Size64); v != 7 {
		t.Fatalf("cell = %d", v)
	}
	if v, _ := m.Mem.Read(frame+16, phys.Size32); v != 6 {
		t.Fatalf("CAS cell = %d", v)
	}
}

// TestConcurrentFetchAdd: N processes, each adding 1 k times under
// random preemption; the counter must equal the exact total — the §3.5
// atomicity guarantee without a single kernel crossing.
func TestConcurrentFetchAdd(t *testing.T) {
	const procs, per = 4, 50
	m, frame := atomicWorld(t, procs, func(int) proc.Body {
		return func(c *proc.Context) error {
			for i := 0; i < per; i++ {
				if _, err := FetchAdd(c, cellVA, 1); err != nil {
					return err
				}
			}
			return nil
		}
	})
	if err := m.Run(proc.NewRandom(1234), 5_000_000); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem.Read(frame, phys.Size64); v != procs*per {
		t.Fatalf("counter = %d, want %d", v, procs*per)
	}
	if m.Kernel.Counters().Syscalls != 0 {
		t.Fatal("user-level atomics crossed into the kernel")
	}
}

// TestSpinLockMutualExclusion: a non-atomic critical section protected
// by the CAS spinlock stays consistent under random preemption.
func TestSpinLockMutualExclusion(t *testing.T) {
	const procs, per = 3, 20
	counterVA := cellVA + 128
	inCrit := 0
	maxInCrit := 0
	m, frame := atomicWorld(t, procs, func(int) proc.Body {
		return func(c *proc.Context) error {
			lock := &SpinLock{VA: cellVA, MaxAttempts: 1 << 20}
			for i := 0; i < per; i++ {
				if err := lock.Lock(c); err != nil {
					return err
				}
				inCrit++
				if inCrit > maxInCrit {
					maxInCrit = inCrit
				}
				// Non-atomic read-modify-write: load, spin, store.
				v, err := c.Load(counterVA, phys.Size64)
				if err != nil {
					return err
				}
				c.Spin(30)
				if err := c.Store(counterVA, phys.Size64, v+1); err != nil {
					return err
				}
				inCrit--
				if err := lock.Unlock(c); err != nil {
					return err
				}
			}
			return nil
		}
	})
	if err := m.Run(proc.NewRandom(777), 50_000_000); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Runner.Processes() {
		if p.Err() != nil {
			t.Fatal(p.Err())
		}
	}
	if maxInCrit != 1 {
		t.Fatalf("critical section held by %d processes at once", maxInCrit)
	}
	if v, _ := m.Mem.Read(frame+128, phys.Size64); v != procs*per {
		t.Fatalf("protected counter = %d, want %d", v, procs*per)
	}
}

func TestUnlockWithoutLockErrors(t *testing.T) {
	m, _ := atomicWorld(t, 1, func(int) proc.Body {
		return func(c *proc.Context) error {
			lock := &SpinLock{VA: cellVA}
			err := lock.Unlock(c)
			if err == nil || !strings.Contains(err.Error(), "unlock") {
				t.Errorf("unheld unlock: %v", err)
			}
			return nil
		}
	})
	if err := m.Run(proc.NewRoundRobin(4), 10_000); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicVsKernelLatency quantifies §3.5: a user-level atomic is an
// order of magnitude cheaper than the same operation via syscall.
func TestAtomicVsKernelLatency(t *testing.T) {
	var userCost, kernelCost sim.Time
	m := machine.MustNew(machine.Alpha3000TC(dma.ModeExtended, 0))
	p := m.NewProcess("u", func(c *proc.Context) error {
		if _, err := FetchAdd(c, cellVA, 0); err != nil { // warm
			return err
		}
		start := m.Clock.Now()
		for i := 0; i < 100; i++ {
			if _, err := FetchAdd(c, cellVA, 1); err != nil {
				return err
			}
		}
		userCost = (m.Clock.Now() - start) / 100
		start = m.Clock.Now()
		for i := 0; i < 100; i++ {
			if _, err := KernelFetchAdd(c, cellVA, 1); err != nil {
				return err
			}
		}
		kernelCost = (m.Clock.Now() - start) / 100
		return nil
	})
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), cellVA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if err := SetupAtomics(m, p, cellVA); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(proc.NewRoundRobin(8), 1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if kernelCost < 10*userCost {
		t.Fatalf("kernel atomic %v vs user atomic %v: expected >=10x gap", kernelCost, userCost)
	}
	t.Logf("user-level atomic %v, kernel atomic %v (%.1fx)", userCost, kernelCost,
		float64(kernelCost)/float64(userCost))
}
