package cpu

// World snapshot/restore support (see internal/machine). The CPU's
// mutable state is its privilege mode, its counters, and its TLB; the
// clock, event queue, memory and bus are shared machine structures
// snapshotted by their own packages.

import "uldma/internal/vm"

// Snapshot captures a CPU's mutable state. See CPU.Snapshot.
type Snapshot struct {
	mode Mode
	ctr  Counters
	tlb  *vm.TLBSnapshot
}

// Snapshot captures the mode, counters and TLB.
func (c *CPU) Snapshot() *Snapshot {
	return &Snapshot{mode: c.mode, ctr: c.ctr, tlb: c.tlb.Snapshot()}
}

// Restore rewinds the CPU to the snapshot. The CPU must have the same
// TLB geometry (same Config) as the snapshot's source.
func (c *CPU) Restore(s *Snapshot) error {
	if err := c.tlb.Restore(s.tlb); err != nil {
		return err
	}
	c.mode = s.mode
	c.ctr = s.ctr
	return nil
}
