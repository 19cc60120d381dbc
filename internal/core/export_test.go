package userdma

import (
	"fmt"

	"uldma/internal/machine"
)

// tlbStamps renders the CPU TLB's entries with their LRU stamps, its
// tick and its scan hint: the state the TLB's StateHash (and so the
// machine fingerprint) leaves out.
func tlbStamps(m *machine.Machine) string {
	return fmt.Sprintf("%+v", *m.CPU.TLB().Snapshot())
}
