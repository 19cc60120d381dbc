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
//
// Nothing else differs: DirectDMA and DMA run the same Handle.initiate,
// so every method makes the same attempts, retries a refusal the same
// number of times and returns the same status and error on either path
// (TestDirectMatchesScheduled). Only PALCode, whose CALL_PAL needs a
// guest context, refuses to run here.

import (
	"uldma/internal/cpu"
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

	// s is DirectDMA's per-call scratch.
	s scratch
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
// cluster analogue of DMA, through the same initiation path: a refused
// attempt is retried exactly as DMA retries it.
func (h *Handle) DirectDMA(d *DirectCPU, src, dst vm.VAddr, size uint64) (uint64, error) {
	return h.initiate(d, &d.s, src, dst, size)
}
