package userdma

import (
	"fmt"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
)

// SetFastForward enables or disables steady-state fast-forwarding of
// the measurement loops and the quiet-stretch skip of Handle.Wait's
// poll, and returns the previous setting. Measurements and world state
// are byte-identical either way (that is both detectors' contract —
// and the equivalence tests' subject); only wall-clock time differs.
func SetFastForward(on bool) (prev bool) {
	prev = fastForward
	fastForward = on
	return prev
}

// ringPending is the "posted, not yet completed" marker PostPending
// pre-writes into a descriptor's status word; the engine only ever
// overwrites it with the completion record. (dma's ring tests keep the
// same value; a core test cannot import dma's test files.)
const ringPending = ^uint64(2)

// PostPending is Post plus a ringPending pre-write into the status
// word, for clients that poll per-descriptor completion records
// instead of the doorbell's in-flight count.
func (h *RingHandle) PostPending(c *proc.Context, slot uint64, src, dst phys.Addr, size uint64) error {
	if err := h.Post(c, slot, src, dst, size); err != nil {
		return err
	}
	return c.Store(h.slotVA(slot)+dma.DescStatus, phys.Size64, ringPending)
}

// tlbStamps renders the CPU TLB's entries with their LRU stamps, its
// tick and its scan hint: the state the TLB's StateHash (and so the
// machine fingerprint) leaves out.
func tlbStamps(m *machine.Machine) string {
	return fmt.Sprintf("%+v", *m.CPU.TLB().Snapshot())
}
