package iommu

// Snapshot/restore: the IOMMU is pure data (no events), so its
// complete state is the per-context tables, the IOTLB (entries + LRU
// clock + hit/miss counters) and the management counters. machine.Snapshot
// carries one of these when an IOMMU is configured, under the same
// rewind-with-the-world rule as every other substrate.

import (
	"fmt"

	"uldma/internal/vm"
)

// Snapshot captures the IOMMU's complete state.
type Snapshot struct {
	tables []*vm.ASSnapshot
	tlb    *vm.TLBSnapshot
	ctr    Counters
}

// Snapshot captures every table, the IOTLB and the counters.
func (io *IOMMU) Snapshot() *Snapshot {
	s := &Snapshot{ctr: io.ctr}
	s.tables = make([]*vm.ASSnapshot, len(io.tables))
	for i, as := range io.tables {
		s.tables[i] = as.Snapshot()
	}
	s.tlb = io.tlb.Snapshot()
	return s
}

// Restore rewinds the IOMMU to the snapshot. The snapshot must come
// from an IOMMU with the same context count (table identity is by
// ASID, which vm validates).
func (io *IOMMU) Restore(s *Snapshot) error {
	if len(s.tables) != len(io.tables) {
		return fmt.Errorf("iommu: restore: snapshot has %d contexts, IOMMU has %d",
			len(s.tables), len(io.tables))
	}
	for i, as := range io.tables {
		if err := as.Restore(s.tables[i]); err != nil {
			return fmt.Errorf("iommu: restore context %d: %w", i, err)
		}
	}
	if err := io.tlb.Restore(s.tlb); err != nil {
		return fmt.Errorf("iommu: restore IOTLB: %w", err)
	}
	io.ctr = s.ctr
	return nil
}
