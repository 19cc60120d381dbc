// Package isa gives the user-level DMA initiation sequences a concrete,
// inspectable form: short straight-line programs of LOAD / STORE / MB
// instructions.
//
// The paper's headline claim is that "a DMA operation can be initiated
// in 2 to 5 assembly instructions". Representing each method's sequence
// as data lets the test suite verify those counts directly (experiment
// X2), lets the attack studies interleave victim and adversary
// instruction-by-instruction under a scripted scheduler, and lets the
// tools print faithful disassembly of what each method executes.
//
// Control flow (the retry loop of Figure 7) stays at the library level:
// a method compiles one straight-line attempt; retrying re-runs it.
package isa

import (
	"fmt"
	"strings"

	"uldma/internal/phys"
	"uldma/internal/vm"
)

// Op is an instruction opcode. Only the three user-mode instructions the
// paper's sequences use are represented; syscalls and PAL calls are
// modelled as higher-level operations on the process context.
type Op uint8

// Opcodes.
const (
	// OpLoad reads Size bytes at Addr; the loaded value is appended to
	// the run's result list (the sequences use it for DMA status).
	OpLoad Op = iota
	// OpStore writes Val (Size bytes) at Addr.
	OpStore
	// OpMB is the Alpha memory-barrier instruction: it drains the write
	// buffer so every prior store reaches the bus before execution
	// continues. Required by the repeated-passing protocol (§3.4).
	OpMB
	// OpSwap is an atomic exchange-style read-modify-write: it sends Val
	// to Addr and yields the returned value (appended to the run's
	// results like a load). SHRIMP's first solution initiates a DMA with
	// a single such compare-and-exchange access (§2.4), and user-level
	// atomic operations ride on it (§3.5).
	OpSwap
)

// String names the opcode in Alpha assembly style.
func (o Op) String() string {
	switch o {
	case OpLoad:
		return "LOAD"
	case OpStore:
		return "STORE"
	case OpMB:
		return "MB"
	case OpSwap:
		return "SWAP"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Instr is one instruction of an initiation sequence. All operands are
// resolved constants: sequences are compiled for a specific DMA request
// (source, destination, size) against a specific process's mappings.
type Instr struct {
	Op      Op
	Addr    vm.VAddr        // effective virtual address (load/store)
	Size    phys.AccessSize // access width (load/store)
	Val     uint64          // store data
	Comment string          // disassembly annotation, e.g. "pass size to shadow(vdst)"
}

// String disassembles the instruction.
func (i Instr) String() string {
	var s string
	switch i.Op {
	case OpLoad:
		s = fmt.Sprintf("LOAD  r0, %v", i.Addr)
	case OpStore:
		s = fmt.Sprintf("STORE %#x, %v", i.Val, i.Addr)
	case OpMB:
		s = "MB"
	case OpSwap:
		s = fmt.Sprintf("SWAP  r0, %#x, %v", i.Val, i.Addr)
	default:
		s = i.Op.String()
	}
	if i.Comment != "" {
		s += " ; " + i.Comment
	}
	return s
}

// Load constructs a load instruction.
func Load(addr vm.VAddr, size phys.AccessSize, comment string) Instr {
	return Instr{Op: OpLoad, Addr: addr, Size: size, Comment: comment}
}

// Store constructs a store instruction.
func Store(addr vm.VAddr, size phys.AccessSize, val uint64, comment string) Instr {
	return Instr{Op: OpStore, Addr: addr, Size: size, Val: val, Comment: comment}
}

// MB constructs a memory-barrier instruction.
func MB(comment string) Instr {
	return Instr{Op: OpMB, Comment: comment}
}

// Swap constructs an atomic-exchange instruction.
func Swap(addr vm.VAddr, size phys.AccessSize, val uint64, comment string) Instr {
	return Instr{Op: OpSwap, Addr: addr, Size: size, Val: val, Comment: comment}
}

// Program is a straight-line instruction sequence.
type Program []Instr

// Len returns the instruction count, including barriers.
func (p Program) Len() int { return len(p) }

// BusAccesses returns how many instructions generate a bus transaction
// toward the device (loads, stores and swaps; MB only orders).
func (p Program) BusAccesses() int {
	n := 0
	for _, i := range p {
		if i.Op == OpLoad || i.Op == OpStore || i.Op == OpSwap {
			n++
		}
	}
	return n
}

// Disassemble renders the whole program, one instruction per line,
// numbered from 1 like the paper's listings.
func (p Program) Disassemble() string {
	var b strings.Builder
	for n, i := range p {
		fmt.Fprintf(&b, "%2d: %s\n", n+1, i.String())
	}
	return b.String()
}

// Executor runs individual instructions. It is implemented by the
// process context (user-mode execution with preemption points) and by
// bare-CPU harnesses in tests.
type Executor interface {
	Load(addr vm.VAddr, size phys.AccessSize) (uint64, error)
	Store(addr vm.VAddr, size phys.AccessSize, val uint64) error
	MB() error
	Swap(addr vm.VAddr, size phys.AccessSize, val uint64) (uint64, error)
}

// RunLast executes p on x like Run but returns only the LAST value a
// load (or swap) produced, with ok reporting whether there was one. It
// never allocates, which matters on the per-message DMA initiation
// path: Run's result slice was one heap allocation per initiation.
func RunLast(x Executor, p Program) (last uint64, ok bool, err error) {
	for n, i := range p {
		switch i.Op {
		case OpLoad:
			v, e := x.Load(i.Addr, i.Size)
			if e != nil {
				return last, ok, fmt.Errorf("isa: instruction %d (%s): %w", n+1, i, e)
			}
			last, ok = v, true
		case OpStore:
			if e := x.Store(i.Addr, i.Size, i.Val); e != nil {
				return last, ok, fmt.Errorf("isa: instruction %d (%s): %w", n+1, i, e)
			}
		case OpMB:
			if e := x.MB(); e != nil {
				return last, ok, fmt.Errorf("isa: instruction %d (%s): %w", n+1, i, e)
			}
		case OpSwap:
			v, e := x.Swap(i.Addr, i.Size, i.Val)
			if e != nil {
				return last, ok, fmt.Errorf("isa: instruction %d (%s): %w", n+1, i, e)
			}
			last, ok = v, true
		default:
			return last, ok, fmt.Errorf("isa: instruction %d: unknown opcode %v", n+1, i.Op)
		}
	}
	return last, ok, nil
}
