// Package userdma is the paper's contribution: user-level DMA initiation
// methods that need no operating system kernel modification, plus the
// prior-work comparators they are evaluated against.
//
// Each Method bundles (a) the setup-time kernel work it needs (shadow
// mappings, register-context assignment, key distribution, PAL
// installation — all ordinary kernel services), and (b) the user-level
// instruction sequence that initiates one DMA. The sequences are the
// paper's figures, verbatim:
//
//	KernelLevel      Figure 1   syscall, thousands of cycles
//	SHRIMP1          §2.4       1 compare-and-exchange, fixed destination
//	SHRIMP2          Figure 2   2 accesses, NEEDS kernel mod to be safe
//	FLASH            §2.6       2 accesses, NEEDS kernel mod (PID hook)
//	PALCode          §2.7       2 accesses inside one uninterruptible PAL call
//	KeyBased         Figure 3   4 accesses, register contexts + secret keys
//	ExtShadow        Figure 4   2 accesses, context id in the address bits
//	RepeatedPassing  Figure 7   5 accesses + barriers, engine FSM
//
// The RequiresKernelMod flag is the paper's dividing line: SHRIMP2 and
// FLASH return true; every method the paper proposes returns false.
package userdma

import (
	"errors"
	"fmt"

	"uldma/internal/dma"
	"uldma/internal/isa"
	"uldma/internal/kernel"
	"uldma/internal/machine"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// StatusFailure re-exports the engine's DMA_FAILURE code for callers.
const StatusFailure = dma.StatusFailure

// ErrNoPoll is returned by Handle.Poll for methods whose status cannot
// be read from user level (paired-mode schemes poll via the kernel).
var ErrNoPoll = errors.New("userdma: method does not support user-level status polling")

// ErrRetriesExhausted is returned when a retrying method keeps being
// refused (heavy adversarial interleaving).
var ErrRetriesExhausted = errors.New("userdma: initiation retries exhausted")

// Method is one DMA initiation scheme.
type Method interface {
	// Name is the scheme's name as used in the paper's Table 1.
	Name() string
	// EngineMode is the shadow-decode protocol the NIC must be built
	// with for this method.
	EngineMode() dma.Mode
	// SeqLen is the repeated-passing variant (0 for other methods).
	SeqLen() int
	// RequiresKernelMod reports whether the scheme depends on a
	// context-switch hook — the paper's disqualifying property.
	RequiresKernelMod() bool
	// Attach performs the per-process setup-time kernel work and
	// returns the process's DMA handle. For context-carrying methods
	// (KeyBased, ExtShadow) Attach must run BEFORE the process's shadow
	// pages are mapped, because the context id is burned into them.
	Attach(m *machine.Machine, p *proc.Process) (*Handle, error)
}

// EngineTweaker is implemented by methods that need a non-default
// engine variant (e.g. ExtShadow's no-register-contexts hardware).
type EngineTweaker interface {
	TweakEngine(cfg *dma.Config)
}

// ConfigFor returns the calibrated machine preset wired for the method,
// including any engine variant the method requires.
func ConfigFor(m Method) machine.Config {
	cfg := machine.Alpha3000TC(m.EngineMode(), m.SeqLen())
	if t, ok := m.(EngineTweaker); ok {
		t.TweakEngine(&cfg.Engine)
	}
	return cfg
}

// Machine builds a machine from ConfigFor(m).
func Machine(m Method) *machine.Machine {
	return machine.MustNew(ConfigFor(m))
}

// Handle is a per-process attachment of a method: everything the user
// library precomputed at setup time (context id, key, shadow base).
type Handle struct {
	method Method
	m      *machine.Machine
	ctx    int
	key    uint64

	// compile appends the straight-line instruction sequence of one
	// initiation attempt to buf and returns it; nil for call-based
	// methods (kernel, PAL), which set call instead.
	compile func(buf isa.Program, src, dst vm.VAddr, size uint64) isa.Program
	// tries bounds Figure 7's client loop around a compiled attempt: 0
	// runs one attempt and returns its status as is; otherwise an
	// attempt answered DMA_FAILURE (or, with strict, ACCEPTED) runs
	// again, at most tries times.
	tries  int
	strict bool
	// call performs one initiation of a call-based method.
	call func(x executor, s *scratch, src, dst vm.VAddr, size uint64) (uint64, error)
	// poll reads the remaining-bytes status from guest code, or nil.
	poll func(c *proc.Context) (uint64, error)
	// s is DMA's scratch: on the scheduled path the handle belongs to
	// the one guest that calls it.
	s scratch
}

// executor is what an initiation runs on: the guest's proc.Context on
// the scheduled path, a DirectCPU on the hosted one.
type executor interface {
	isa.Executor
	Syscall(num int, args ...uint64) (uint64, error)
}

// scratch is one caller's per-call initiation state: the Handle's own
// for DMA, the DirectCPU's for DirectDMA. A hosted cluster shares its
// template's handle across shards on different goroutines, so the
// hosted path must not write to the handle.
type scratch struct {
	// prog is the buffer attempts compile into; every attempt executes
	// it and keeps none of it.
	prog isa.Program
	// args is the argument array of KernelLevel's syscall and
	// PALCode's CALL_PAL: a fresh variadic slice would escape, through
	// the executor interface or into the installed PAL routine.
	args [3]uint64
	// src is the last initiation's source, which ExtShadow's poll
	// re-reads.
	src vm.VAddr
}

// Context returns the register context assigned to the process (0 when
// the method does not use contexts).
func (h *Handle) Context() int { return h.ctx }

// Program returns the user-level instruction sequence of one initiation
// attempt, for disassembly and instruction counting. ok is false for
// call-based methods (KernelLevel issues a syscall; PALCode issues a
// CALL_PAL whose two-instruction body runs in PAL mode).
func (h *Handle) Program(src, dst vm.VAddr, size uint64) (isa.Program, bool) {
	if h.compile == nil {
		return nil, false
	}
	return h.compile(nil, src, dst, size), true
}

// DMA initiates a transfer of size bytes from virtual address src to
// virtual address dst, from user level (except KernelLevel, which
// traps). It returns the initiation status word: StatusFailure for a
// refused initiation, otherwise the bytes remaining (the transfer
// continues in the background; see Poll).
func (h *Handle) DMA(c *proc.Context, src, dst vm.VAddr, size uint64) (uint64, error) {
	return h.initiate(c, &h.s, src, dst, size)
}

// initiate is the one initiation path of every method, scheduled or
// hosted: a call-based method's call, or the compiled attempt run under
// Figure 7's client loop.
func (h *Handle) initiate(x executor, s *scratch, src, dst vm.VAddr, size uint64) (uint64, error) {
	if h.call != nil {
		return h.call(x, s, src, dst, size)
	}
	s.src = src
	s.prog = h.compile(s.prog[:0], src, dst, size)
	if h.tries == 0 {
		return runCheckedProgram(x, s.prog)
	}
	for attempt := 0; attempt < h.tries; attempt++ {
		status, err := runCheckedProgram(x, s.prog)
		if err != nil {
			return dma.StatusFailure, err
		}
		// Figure 7: "If (return_status == DMA_FAILURE) goto 1". A
		// strict client also retries ACCEPTED: the final load extended
		// someone else's sequence instead of completing ours, so no
		// transfer started.
		if status == dma.StatusFailure || (h.strict && status == dma.StatusAccepted) {
			continue
		}
		return status, nil
	}
	return dma.StatusFailure, ErrRetriesExhausted
}

// Poll reads the remaining-byte count of the process's most recent
// transfer from user level (0 = complete). Methods without user-level
// status (paired-mode schemes) return ErrNoPoll.
func (h *Handle) Poll(c *proc.Context) (uint64, error) {
	if h.poll == nil {
		return 0, ErrNoPoll
	}
	return h.poll(c)
}

// WaitBlocking sleeps in the kernel until the process's outstanding
// transfer completes (SysDMAWait): one trap, then the CPU is free for
// other processes until the completion interrupt. The cheap-CPU
// alternative to Wait's user-level polling — the classic poll-vs-
// interrupt trade the NOW literature argues about.
func (h *Handle) WaitBlocking(c *proc.Context) error {
	st, err := c.Syscall(kernel.SysDMAWait)
	if err != nil {
		return err
	}
	if st == dma.StatusFailure {
		return fmt.Errorf("userdma: nothing to wait on (or the transfer failed)")
	}
	return nil
}

// Wait polls until the transfer completes or maxPolls is exhausted.
// Quiet stretches of identical polls are charged in one step (pollSkip).
func (h *Handle) Wait(c *proc.Context, maxPolls int) error {
	skip := newPollSkip(h.m)
	defer skip.done()
	for i := 0; i < maxPolls; i++ {
		skip.polls++
		rem, err := h.Poll(c)
		if err != nil {
			return err
		}
		if rem == 0 {
			return nil
		}
		if rem == dma.StatusFailure {
			return fmt.Errorf("userdma: transfer failed while waiting")
		}
		c.Spin(200) // back off before re-polling
		i += skip.after(h.m, c, maxPolls-i-1)
	}
	return fmt.Errorf("userdma: transfer still running after %d polls", maxPolls)
}

// shadow returns the user VA aliasing va's shadow page, using the
// kernel's fixed layout (precomputed at setup time in a real library).
func shadow(va vm.VAddr) vm.VAddr { return kernel.ShadowVA(va) }
