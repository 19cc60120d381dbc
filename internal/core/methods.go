package userdma

import (
	"fmt"

	"uldma/internal/dma"
	"uldma/internal/isa"
	"uldma/internal/kernel"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// Methods returns the paper's Table 1 line-up in its row order, ready
// to attach.
func Methods() []Method {
	return []Method{
		KernelLevel{},
		ExtShadow{},
		RepeatedPassing{Len: 5, Barriers: true},
		KeyBased{},
	}
}

// AllMethods additionally includes the comparators and the PAL scheme.
func AllMethods() []Method {
	return append(Methods(),
		PALCode{},
		SHRIMP1{},
		SHRIMP2{WithKernelMod: true},
		FLASH{},
	)
}

// --- Kernel-level DMA (Figure 1, §2.2) ---

// KernelLevel is the traditional baseline: every initiation traps into
// the kernel, which translates, checks, and programs the engine.
type KernelLevel struct{}

// Name implements Method.
func (KernelLevel) Name() string { return "Kernel-level DMA" }

// EngineMode implements Method. The kernel path uses only the control
// page, so any mode works; paired is the plainest.
func (KernelLevel) EngineMode() dma.Mode { return dma.ModePaired }

// SeqLen implements Method.
func (KernelLevel) SeqLen() int { return 0 }

// RequiresKernelMod implements Method: the kernel path IS the kernel,
// but it modifies nothing.
func (KernelLevel) RequiresKernelMod() bool { return false }

// Attach implements Method.
func (k KernelLevel) Attach(m *machine.Machine, _ *proc.Process) (*Handle, error) {
	h := &Handle{method: k, m: m}
	h.call = func(x executor, s *scratch, src, dst vm.VAddr, size uint64) (uint64, error) {
		// The handler reads the arguments and keeps none.
		s.args = [3]uint64{uint64(src), uint64(dst), size}
		return x.Syscall(kernel.SysDMA, s.args[:]...)
	}
	h.poll = func(c *proc.Context) (uint64, error) {
		// Completion polling costs a full trap each time — part of why
		// the kernel path loses.
		return c.Syscall(kernel.SysDMAStatus)
	}
	return h, nil
}

// --- Extended shadow addressing (Figure 4, §3.2) ---

// ExtShadow embeds the process's register-context id in spare bits of
// the shadow physical address, set by the OS at mmap time. Two
// instructions; the fastest scheme in Table 1.
//
// NoContexts selects the §3.2 low-cost engine variant without register
// contexts: the engine pair-matches a STORE with the next LOAD and only
// starts the DMA when their context ids agree. An initiation interrupted
// by another context's initiation fails cleanly and is retried, like
// Figure 7, up to 64 times. Polling is unavailable in this variant
// (there is no per-context status register).
type ExtShadow struct {
	NoContexts bool
}

// Name implements Method.
func (e ExtShadow) Name() string {
	if e.NoContexts {
		return "Ext. Shadow Addressing (no reg. contexts)"
	}
	return "Ext. Shadow Addressing"
}

// EngineMode implements Method.
func (ExtShadow) EngineMode() dma.Mode { return dma.ModeExtended }

// TweakEngine applies the no-register-contexts hardware variant.
func (e ExtShadow) TweakEngine(cfg *dma.Config) { cfg.NoRegContexts = e.NoContexts }

// SeqLen implements Method.
func (ExtShadow) SeqLen() int { return 0 }

// RequiresKernelMod implements Method.
func (ExtShadow) RequiresKernelMod() bool { return false }

// Attach implements Method. Must run before MapShadow/SetupPages so the
// context id lands in the process's shadow mappings.
func (e ExtShadow) Attach(m *machine.Machine, p *proc.Process) (*Handle, error) {
	ctx, _, err := m.Kernel.AssignContext(p)
	if err != nil {
		return nil, fmt.Errorf("userdma: %s: %w", e.Name(), err)
	}
	h := &Handle{method: e, m: m, ctx: ctx}
	h.compile = func(buf isa.Program, src, dst vm.VAddr, size uint64) isa.Program {
		return append(buf,
			isa.Store(shadow(dst), phys.Size64, size, "pass size; shadow(vdst) carries pdst+ctx"),
			isa.Load(shadow(src), phys.Size64, "pass psrc; starts DMA; returns status"),
		)
	}
	if e.NoContexts {
		// Pair-matching engine: another context's interleaved pair makes
		// the load fail.
		h.tries = defaultTries
	} else {
		h.poll = func(c *proc.Context) (uint64, error) {
			// A shadow load with no half-initiation pending polls the
			// context's running transfer.
			return c.Load(shadow(h.s.src), phys.Size64)
		}
	}
	return h, nil
}

// --- Key-based DMA (Figure 3, §3.1) ---

// KeyBased passes each physical address with a key#context data word;
// the engine's per-context key check stops forgeries. Four instructions.
type KeyBased struct{}

// Name implements Method.
func (KeyBased) Name() string { return "Key-based DMA" }

// EngineMode implements Method.
func (KeyBased) EngineMode() dma.Mode { return dma.ModeKeyed }

// SeqLen implements Method.
func (KeyBased) SeqLen() int { return 0 }

// RequiresKernelMod implements Method.
func (KeyBased) RequiresKernelMod() bool { return false }

// Attach implements Method.
func (k KeyBased) Attach(m *machine.Machine, p *proc.Process) (*Handle, error) {
	ctx, key, err := m.Kernel.AssignContext(p)
	if err != nil {
		return nil, fmt.Errorf("userdma: %s: %w", k.Name(), err)
	}
	h := &Handle{method: k, m: m, ctx: ctx, key: key}
	packed := dma.PackKey(key, ctx)
	h.compile = func(buf isa.Program, src, dst vm.VAddr, size uint64) isa.Program {
		return append(buf,
			isa.Store(shadow(dst), phys.Size64, packed, "KEY#CTX to shadow(vdst): pass destination"),
			isa.Store(shadow(src), phys.Size64, packed, "KEY#CTX to shadow(vsrc): pass source"),
			isa.Store(kernel.CtxPageVA, phys.Size64, size, "size to register context"),
			// The status load reads the same address the size store just
			// wrote; without a barrier the write buffer services it and
			// the engine never sees the sequence (§3.4, footnote 6).
			isa.MB("flush write buffer before status read (§3.4)"),
			isa.Load(kernel.CtxPageVA, phys.Size64, "initiate; read status"),
		)
	}
	h.poll = func(c *proc.Context) (uint64, error) {
		return c.Load(kernel.CtxPageVA, phys.Size64)
	}
	return h, nil
}

// --- Repeated passing of arguments (Figure 7, §3.3) ---

// RepeatedPassing drives the engine's sequence FSM. SeqLen 5 is the
// paper's safe sequence; 3 and 4 are the deliberately vulnerable
// variants kept for the Figure 5/6 attack studies. Barriers controls
// the §3.4 memory barriers (disable only for the write-buffer ablation,
// experiment X3). MaxRetries bounds the Figure 7 goto-retry loop.
type RepeatedPassing struct {
	// Len selects the sequence variant (3, 4 or 5; 0 means 5).
	Len        int
	Barriers   bool
	MaxRetries int
	// LooseStatus reproduces the paper's literal Figure 7 client, which
	// only checks DMA_FAILURE. Under concurrent repeated-passing
	// traffic that client can read a false "success" (its final load
	// merely extended another process's sequence and returned
	// ACCEPTED). The default strict client also retries on ACCEPTED,
	// which restores reliable multiprogrammed operation.
	LooseStatus bool
}

// Name implements Method.
func (r RepeatedPassing) Name() string {
	if r.Len != 0 && r.Len != 5 {
		return fmt.Sprintf("Rep. Passing of Arguments (%d-instr)", r.Len)
	}
	return "Rep. Passing of Arguments"
}

// EngineMode implements Method.
func (RepeatedPassing) EngineMode() dma.Mode { return dma.ModeRepeated }

// SeqLen implements Method.
func (r RepeatedPassing) SeqLen() int {
	if r.Len == 0 {
		return 5
	}
	return r.Len
}

// RequiresKernelMod implements Method.
func (RepeatedPassing) RequiresKernelMod() bool { return false }

// Attach implements Method.
func (r RepeatedPassing) Attach(m *machine.Machine, _ *proc.Process) (*Handle, error) {
	return r.handle(m), nil
}

// handle builds the Figure 7 client: the sequence, retried at most
// MaxRetries times (64 if unset), strictly unless LooseStatus.
func (r RepeatedPassing) handle(m *machine.Machine) *Handle {
	return &Handle{method: r, m: m, compile: r.sequence, tries: triesOr(r.MaxRetries), strict: !r.LooseStatus}
}

// sequence appends one attempt to p. The 5-access shape is Figure 7
// verbatim: STORE, LOAD, STORE, LOAD, LOAD with barriers after each
// store so the write buffer cannot collapse the repeated stores (§3.4).
func (r RepeatedPassing) sequence(p isa.Program, src, dst vm.VAddr, size uint64) isa.Program {
	switch r.SeqLen() {
	case 3: // Dubnicki's original proposal.
		p = append(p, isa.Load(shadow(src), phys.Size64, "status1 from shadow(vsrc)"))
		p = append(p, isa.Store(shadow(dst), phys.Size64, size, "size to shadow(vdst)"))
		p = r.barrier(p)
		p = append(p, isa.Load(shadow(src), phys.Size64, "status2 from shadow(vsrc); starts DMA"))
	case 4:
		p = append(p, isa.Store(shadow(dst), phys.Size64, size, "size to shadow(vdst)"))
		p = r.barrier(p)
		p = append(p, isa.Load(shadow(src), phys.Size64, "status1 from shadow(vsrc)"))
		p = append(p, isa.Store(shadow(dst), phys.Size64, size, "size to shadow(vdst) again"))
		p = r.barrier(p)
		p = append(p, isa.Load(shadow(src), phys.Size64, "status2; starts DMA"))
	default: // 5: Figure 7.
		p = append(p, isa.Store(shadow(dst), phys.Size64, size, "1: size to shadow(vdst)"))
		p = r.barrier(p)
		p = append(p, isa.Load(shadow(src), phys.Size64, "2: status from shadow(vsrc)"))
		p = append(p, isa.Store(shadow(dst), phys.Size64, size, "3: size to shadow(vdst) again"))
		p = r.barrier(p)
		p = append(p, isa.Load(shadow(src), phys.Size64, "4: status from shadow(vsrc) again"))
		p = append(p, isa.Load(shadow(dst), phys.Size64, "5: status from shadow(vdst); starts DMA"))
	}
	return p
}

// barrier appends the §3.4 write-buffer flush when Barriers is set.
func (r RepeatedPassing) barrier(p isa.Program) isa.Program {
	if r.Barriers {
		return append(p, isa.MB("flush write buffer (§3.4)"))
	}
	return p
}

// --- PAL code (§2.7) ---

// PALCode wraps the two-access paired sequence in an uninterruptible
// PAL call. Needs an Alpha host; no kernel modification (installing PAL
// code is a super-user boot-time action).
type PALCode struct{}

// Name implements Method.
func (PALCode) Name() string { return "PAL Code" }

// EngineMode implements Method.
func (PALCode) EngineMode() dma.Mode { return dma.ModePaired }

// SeqLen implements Method.
func (PALCode) SeqLen() int { return 0 }

// RequiresKernelMod implements Method.
func (PALCode) RequiresKernelMod() bool { return false }

// Attach implements Method.
func (pc PALCode) Attach(m *machine.Machine, _ *proc.Process) (*Handle, error) {
	m.Kernel.InstallPALDMA()
	h := &Handle{method: pc, m: m}
	h.call = func(x executor, s *scratch, src, dst vm.VAddr, size uint64) (uint64, error) {
		c, ok := x.(*proc.Context)
		if !ok {
			return dma.StatusFailure, fmt.Errorf("userdma: %s cannot initiate outside a scheduler context", pc.Name())
		}
		s.args = [3]uint64{uint64(src), uint64(dst), size}
		return c.PALCall(kernel.PALUserDMA, s.args[:]...)
	}
	return h, nil
}

// --- SHRIMP solution 1 (§2.4) ---

// SHRIMP1 maps each communication page out to a fixed destination; one
// compare-and-exchange initiates the transfer. Atomic by construction,
// but the destination cannot vary — the restrictiveness §2.4 notes.
type SHRIMP1 struct{}

// Name implements Method.
func (SHRIMP1) Name() string { return "SHRIMP solution 1 (mapped-out)" }

// EngineMode implements Method.
func (SHRIMP1) EngineMode() dma.Mode { return dma.ModeMappedOut }

// SeqLen implements Method.
func (SHRIMP1) SeqLen() int { return 0 }

// RequiresKernelMod implements Method.
func (SHRIMP1) RequiresKernelMod() bool { return false }

// Attach implements Method. Destinations are fixed per page with
// MapOutPage before use; DMA ignores its dst argument.
func (s SHRIMP1) Attach(m *machine.Machine, _ *proc.Process) (*Handle, error) {
	h := &Handle{method: s, m: m}
	h.compile = func(buf isa.Program, src, _ vm.VAddr, size uint64) isa.Program {
		return append(buf, isa.Swap(shadow(src), phys.Size64, size, "compare&exchange: size in, status out"))
	}
	return h, nil
}

// MapOutPage fixes the destination of the page holding srcVA (kernel
// setup). dstPA is the physical destination base (local or remote
// window).
func (SHRIMP1) MapOutPage(m *machine.Machine, p *proc.Process, srcVA vm.VAddr, dstPA phys.Addr) error {
	return m.Kernel.MapOut(p, srcVA, dstPA)
}

// --- SHRIMP solution 2 (Figure 2, §2.5) ---

// SHRIMP2 is the two-access paired sequence issued directly from user
// mode. Without the kernel's context-switch invalidation it is racy
// (the Figure 2 caption's caveat); WithKernelMod installs that hook.
type SHRIMP2 struct {
	// WithKernelMod enables the context-switch abort — the kernel
	// modification the paper's methods make unnecessary.
	WithKernelMod bool
	// MaxRetries bounds the retry loop when aborts make attempts fail.
	MaxRetries int
}

// Name implements Method.
func (s SHRIMP2) Name() string {
	if s.WithKernelMod {
		return "SHRIMP solution 2 (kernel-mod)"
	}
	return "SHRIMP solution 2 (unsafe)"
}

// EngineMode implements Method.
func (SHRIMP2) EngineMode() dma.Mode { return dma.ModePaired }

// SeqLen implements Method.
func (SHRIMP2) SeqLen() int { return 0 }

// RequiresKernelMod implements Method.
func (s SHRIMP2) RequiresKernelMod() bool { return s.WithKernelMod }

// Attach implements Method.
func (s SHRIMP2) Attach(m *machine.Machine, _ *proc.Process) (*Handle, error) {
	if s.WithKernelMod {
		m.Kernel.EnableSHRIMP2Hook()
	}
	return pairedHandle(s, m, s.MaxRetries), nil
}

// --- FLASH (§2.6) ---

// FLASH is the paired sequence made safe by telling the engine which
// process runs at every context switch — a kernel modification.
type FLASH struct{}

// Name implements Method.
func (FLASH) Name() string { return "FLASH (PID tracking)" }

// EngineMode implements Method.
func (FLASH) EngineMode() dma.Mode { return dma.ModePaired }

// SeqLen implements Method.
func (FLASH) SeqLen() int { return 0 }

// RequiresKernelMod implements Method.
func (FLASH) RequiresKernelMod() bool { return true }

// Attach implements Method.
func (f FLASH) Attach(m *machine.Machine, _ *proc.Process) (*Handle, error) {
	m.Kernel.EnableFLASHHook()
	return pairedHandle(f, m, 0), nil
}

// pairedHandle builds the Figure 2 two-access handle shared by SHRIMP2
// and FLASH, retried (at most tries times, 64 if unset) when a hook
// aborts an attempt.
func pairedHandle(method Method, m *machine.Machine, maxRetries int) *Handle {
	return &Handle{method: method, m: m, tries: triesOr(maxRetries), compile: func(buf isa.Program, src, dst vm.VAddr, size uint64) isa.Program {
		return append(buf,
			isa.Store(shadow(dst), phys.Size64, size, "pass pdst and size"),
			isa.Load(shadow(src), phys.Size64, "pass psrc; starts DMA; returns status"),
		)
	}}
}

// --- shared execution helpers ---

// defaultTries bounds Figure 7's client loop for a method that sets no
// MaxRetries of its own.
const defaultTries = 64

// triesOr returns maxRetries, or defaultTries if it is unset.
func triesOr(maxRetries int) int {
	if maxRetries <= 0 {
		return defaultTries
	}
	return maxRetries
}

// runCheckedProgram executes prog, the one runner of every compiled
// attempt, and returns its last load's (or swap's) value, the status
// word. It aborts the attempt as soon as any intermediate load reports
// DMA_FAILURE — Figure 7's per-step "if (return_status == DMA_FAILURE)
// goto 1"; every other method's program ends in its one status read.
// It takes the executor interface itself, not isa.Executor: converting
// one interface to another at run time goes through a per-call-site
// type cache the runtime now and then reallocates, which would be an
// allocation on the initiation path.
func runCheckedProgram(c executor, prog isa.Program) (uint64, error) {
	var last uint64 = dma.StatusFailure
	for _, ins := range prog {
		switch ins.Op {
		case isa.OpLoad:
			v, err := c.Load(ins.Addr, ins.Size)
			if err != nil {
				return dma.StatusFailure, err
			}
			if v == dma.StatusFailure {
				return dma.StatusFailure, nil
			}
			last = v
		case isa.OpStore:
			if err := c.Store(ins.Addr, ins.Size, ins.Val); err != nil {
				return dma.StatusFailure, err
			}
		case isa.OpMB:
			if err := c.MB(); err != nil {
				return dma.StatusFailure, err
			}
		case isa.OpSwap:
			v, err := c.Swap(ins.Addr, ins.Size, ins.Val)
			if err != nil {
				return dma.StatusFailure, err
			}
			last = v
		}
	}
	return last, nil
}
