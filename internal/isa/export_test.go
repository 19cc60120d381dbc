package isa

import "fmt"

// Run executes p on x and returns the values produced by the program's
// load instructions, in program order — the reference interpreter the
// isa tests check programs against. Execution stops at the first
// instruction error.
func Run(x Executor, p Program) ([]uint64, error) {
	var loads []uint64
	for n, i := range p {
		switch i.Op {
		case OpLoad:
			v, err := x.Load(i.Addr, i.Size)
			if err != nil {
				return loads, fmt.Errorf("isa: instruction %d (%s): %w", n+1, i, err)
			}
			loads = append(loads, v)
		case OpStore:
			if err := x.Store(i.Addr, i.Size, i.Val); err != nil {
				return loads, fmt.Errorf("isa: instruction %d (%s): %w", n+1, i, err)
			}
		case OpMB:
			if err := x.MB(); err != nil {
				return loads, fmt.Errorf("isa: instruction %d (%s): %w", n+1, i, err)
			}
		case OpSwap:
			v, err := x.Swap(i.Addr, i.Size, i.Val)
			if err != nil {
				return loads, fmt.Errorf("isa: instruction %d (%s): %w", n+1, i, err)
			}
			loads = append(loads, v)
		default:
			return loads, fmt.Errorf("isa: instruction %d: unknown opcode %v", n+1, i.Op)
		}
	}
	return loads, nil
}
