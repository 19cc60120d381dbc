package userdma

// Direct execution: run a method's initiation sequence on a machine's
// bare CPU, outside the process scheduler. proc.Context couples every
// instruction to a scheduler slot grant (Context.begin yields to the
// runner and waits for its next grant), which is right for
// multiprogrammed guest code but impossible inside a discrete-event
// handler — a shard-hosted machine fires RPC events from the cluster's
// event loop, where no guest coroutine exists to suspend. DirectCPU is the same instruction
// stream without the slot protocol: the CPU still pays translation,
// TLB misses, write-buffer drains and bus transactions on the shared
// clock, so Table-1 costs are preserved instruction for instruction.
//
// The trade is preemption: a direct sequence is atomic with respect to
// other guest code (there is none in a hosted world — each node runs
// one library). The attack studies, which are ABOUT preemption, keep
// using the scheduler path.

import (
	"fmt"

	"uldma/internal/cpu"
	"uldma/internal/dma"
	"uldma/internal/isa"
	"uldma/internal/kernel"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// DirectCPU is an isa.Executor over a machine's CPU on behalf of one
// process's address space, with no scheduler in the loop.
type DirectCPU struct {
	M *machine.Machine
	P *proc.Process

	// prog is the buffer DirectDMA compiles into. It lives here, not on
	// the Handle, because one handle may drive many machines at once (a
	// hosted cluster shares its template's handle across shards).
	prog isa.Program
}

// Load implements isa.Executor.
func (d *DirectCPU) Load(va vm.VAddr, size phys.AccessSize) (uint64, error) {
	return d.M.CPU.Load(d.P.AddressSpace(), va, size)
}

// Store implements isa.Executor.
func (d *DirectCPU) Store(va vm.VAddr, size phys.AccessSize, val uint64) error {
	return d.M.CPU.Store(d.P.AddressSpace(), va, size, val)
}

// MB implements isa.Executor.
func (d *DirectCPU) MB() error { return d.M.CPU.MB() }

// Swap implements isa.Executor.
func (d *DirectCPU) Swap(va vm.VAddr, size phys.AccessSize, val uint64) (uint64, error) {
	return d.M.CPU.Swap(d.P.AddressSpace(), va, size, val)
}

// Syscall traps into the kernel with the same mode dance as
// proc.Context.Syscall: the handler runs in kernel mode,
// uninterruptible, charging entry/exit on the shared clock.
func (d *DirectCPU) Syscall(num int, args ...uint64) (uint64, error) {
	c := d.M.CPU
	prev := c.Mode()
	c.SetMode(cpu.Kernel)
	v, err := d.M.Kernel.Syscall(d.P, num, args)
	c.SetMode(prev)
	return v, err
}

// DirectDMA initiates a transfer by running the method's real
// instruction sequence (or kernel trap) on the bare CPU — the hosted-
// cluster analogue of DMA. Retry semantics match the scheduler path:
// repeated passing re-runs its Figure 7 attempt on DMA_FAILURE (and,
// strictly, on ACCEPTED); single-attempt methods return their status
// word as-is.
func (h *Handle) DirectDMA(d *DirectCPU, src, dst vm.VAddr, size uint64) (uint64, error) {
	if h.compile == nil {
		if _, ok := h.method.(KernelLevel); ok {
			return d.Syscall(kernel.SysDMA, uint64(src), uint64(dst), size)
		}
		return dma.StatusFailure, fmt.Errorf("userdma: %s cannot initiate outside a scheduler context", h.method.Name())
	}
	d.prog = h.compile(d.prog[:0], src, dst, size)
	prog := d.prog
	if r, ok := h.method.(RepeatedPassing); ok {
		return r.retry(d, prog)
	}
	v, ok, err := isa.RunLast(d, prog)
	if err != nil {
		return dma.StatusFailure, err
	}
	if !ok {
		return dma.StatusFailure, fmt.Errorf("userdma: sequence produced no status")
	}
	return v, nil
}
