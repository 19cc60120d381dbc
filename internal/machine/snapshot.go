package machine

// World snapshot/restore: capture a quiescent machine's complete state
// and rewind to it — either in place (the cheap path between sweep
// points) or into a freshly built clone (the cell-expansion path in
// internal/exp, where one warmed world per configuration family is
// cloned per cell instead of rebuilt).
//
// Quiescence is the load-bearing precondition. Guest processes are live
// goroutines, so a snapshot is only taken when every process is Done
// and the event queue has been settled — then every mutable structure
// is plain data. The expensive structure, physical memory, is captured
// copy-on-write: Snapshot marks the origin's pages shared, and the
// first post-snapshot write to a page (by the origin or any clone)
// copies that page's 64-byte header and the 1 KiB line written.
// Snapshots of warmed-but-idle worlds therefore cost a page-pointer
// table, not a memory image.

import (
	"fmt"

	"uldma/internal/bus"
	"uldma/internal/cpu"
	"uldma/internal/dma"
	"uldma/internal/iommu"
	"uldma/internal/kernel"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
)

// Snapshot is a complete machine state at one instant. It can be
// restored into its origin machine (Restore) or hydrated into any
// number of independent clones (NewFromSnapshot), which share the
// origin's memory copy-on-write and its settled process/transfer
// records by pointer.
type Snapshot struct {
	cfg    Config
	time   sim.Time
	seq    uint64
	mem    *phys.Snapshot
	bus    *bus.BusSnapshot
	wb     *bus.WBSnapshot
	cpu    *cpu.Snapshot
	engine *dma.EngineSnapshot
	kern   *kernel.Snapshot
	runner *proc.RunnerSnapshot
	iommuS *iommu.Snapshot // nil on machines without an IOMMU
	trace  *obs.TraceState // nil when tracing was disabled
	origin *Machine
}

// Time returns the simulated time the snapshot was taken at.
func (s *Snapshot) Time() sim.Time { return s.time }

// Snapshot settles the machine (fires outstanding events, advancing the
// clock past the last of them) and captures its complete state. It
// fails if the world cannot be quiesced: a process still live, a
// process queued for a register context, or the engine attached to a
// cluster fabric (in-flight link traffic lives outside the machine).
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.hosted {
		return nil, fmt.Errorf("machine: Snapshot on a shard-hosted machine (its shard owns the clock and event queue)")
	}
	m.Settle()
	runner, err := m.Runner.Snapshot()
	if err != nil {
		return nil, err
	}
	engine, err := m.Engine.Snapshot()
	if err != nil {
		return nil, err
	}
	kern, err := m.Kernel.Snapshot()
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		cfg:    m.Cfg,
		time:   m.Clock.Now(),
		seq:    m.Events.SnapshotSeq(),
		mem:    m.Mem.Snapshot(),
		bus:    m.Bus.Snapshot(),
		wb:     m.WB.Snapshot(),
		cpu:    m.CPU.Snapshot(),
		engine: engine,
		kern:   kern,
		runner: runner,
		origin: m,
	}
	if m.IOMMU != nil {
		s.iommuS = m.IOMMU.Snapshot()
	}
	if m.Tracer != nil {
		s.trace = m.Tracer.State()
	}
	return s, nil
}

// Restore rewinds the snapshot's origin machine in place: post-snapshot
// processes are discarded, hook chains are truncated to their snapshot
// lengths, and every substrate is rewound. Only the origin can be
// restored in place (process records are matched by identity); other
// machines must be built with NewFromSnapshot. Must not be used while
// clones hydrated from the same snapshot are running — the address-
// space rewind would race with their shared page tables.
func (m *Machine) Restore(s *Snapshot) error {
	if s.origin != m {
		return fmt.Errorf("machine: restore: not the snapshot's origin machine (use NewFromSnapshot)")
	}
	m.Settle()
	if err := m.Runner.Restore(s.runner); err != nil {
		return err
	}
	return m.restoreInto(s)
}

// NewFromSnapshot builds an independent clone of the snapshot's origin:
// a fresh machine with the same configuration, rewound to the snapshot.
// The clone shares the origin's physical memory copy-on-write and its
// settled process and transfer records by pointer; it has its own
// clock, event queue, and every other mutable structure, so origin and
// clones can run concurrently (one goroutine each, as usual).
//
// Hook installations are re-enacted, not copied: the kernel's SHRIMP-2 /
// FLASH hooks and the PAL DMA routine are re-installed on the clone's
// own kernel so their closures bind to the clone, then verified against
// the snapshot's chain lengths. Custom (non-kernel) hooks cannot be
// cloned.
func NewFromSnapshot(s *Snapshot) (*Machine, error) {
	m, err := New(s.cfg)
	if err != nil {
		return nil, err
	}
	// Re-enact the snapshot-era installations against the clone's own
	// kernel before restoring its bookkeeping (the flags start false on
	// a fresh kernel, so these take effect exactly once).
	if s.kern.SHRIMP2Hook() {
		m.Kernel.EnableSHRIMP2Hook()
	}
	if s.kern.FLASHHook() {
		m.Kernel.EnableFLASHHook()
	}
	if s.kern.PALDMAInstalled() {
		m.Kernel.InstallPALDMA()
	}
	if s.trace != nil {
		// Re-enact tracing: the clone gets its own trace of the same
		// capacity and policy, rewound to the snapshot (the
		// rewind-with-the-world rule, same as every counter).
		m.EnableTrace(s.trace.Cap(), s.trace.Policy())
	}
	if err := m.Runner.Adopt(s.runner); err != nil {
		return nil, err
	}
	if err := m.restoreInto(s); err != nil {
		return nil, err
	}
	return m, nil
}

// RestoreOrigin rewinds the snapshot's origin machine in place and
// returns it — the serial-reuse pattern: take one snapshot of a warmed
// (or pristine) world, then rewind between runs instead of rebuilding.
func RestoreOrigin(s *Snapshot) (*Machine, error) {
	if err := s.origin.Restore(s); err != nil {
		return nil, err
	}
	return s.origin, nil
}

// restoreInto rewinds every substrate shared between the in-place and
// clone paths. The runner is handled by the caller (Restore vs Adopt).
func (m *Machine) restoreInto(s *Snapshot) error {
	m.Clock.Reset(s.time)
	m.Events.Reset(s.seq)
	return m.restoreSubstrates(s)
}

// restoreSubstrates rewinds the machine-owned substrates only — not the
// clock or event queue, which a shard-hosted machine does not own.
func (m *Machine) restoreSubstrates(s *Snapshot) error {
	if err := m.Mem.Restore(s.mem); err != nil {
		return err
	}
	m.Bus.Restore(s.bus)
	if err := m.WB.Restore(s.wb); err != nil {
		return err
	}
	if err := m.CPU.Restore(s.cpu); err != nil {
		return err
	}
	if err := m.Engine.Restore(s.engine); err != nil {
		return err
	}
	if s.iommuS != nil {
		if m.IOMMU == nil {
			return fmt.Errorf("machine: restore: snapshot has IOMMU state but machine has no IOMMU")
		}
		if err := m.IOMMU.Restore(s.iommuS); err != nil {
			return err
		}
	}
	if s.trace != nil && m.Tracer != nil {
		if err := m.Tracer.RestoreState(s.trace); err != nil {
			return err
		}
	}
	return m.Kernel.Restore(s.kern)
}

// NewFromSnapshotHosted hydrates a snapshot into a shard-hosted clone
// running on the given external clock and event queue — the per-node
// amortization path for cluster-scale worlds: build ONE standalone
// template machine, snapshot it, then hydrate a clone per node. Clones
// share the template's physical memory copy-on-write and its settled
// process records and page tables by pointer; nothing may remap pages
// after the snapshot.
//
// The clone does NOT adopt the snapshot's clock time (the shard clock
// is shared and starts at zero). Its substrates carry template-era
// timestamps (bus busy-until, write-buffer slots), so the host must not
// drive any CPU or bus operation on the clone before the template's
// snapshot time — scale worlds prime their first arrivals at a boot
// time past it.
func NewFromSnapshotHosted(s *Snapshot, clock *sim.Clock, events *sim.EventQueue) (*Machine, error) {
	m, err := NewHosted(s.cfg, clock, events)
	if err != nil {
		return nil, err
	}
	if s.kern.SHRIMP2Hook() {
		m.Kernel.EnableSHRIMP2Hook()
	}
	if s.kern.FLASHHook() {
		m.Kernel.EnableFLASHHook()
	}
	if s.kern.PALDMAInstalled() {
		m.Kernel.InstallPALDMA()
	}
	if s.trace != nil {
		m.EnableTrace(s.trace.Cap(), s.trace.Policy())
	}
	if err := m.Runner.Adopt(s.runner); err != nil {
		return nil, err
	}
	if err := m.restoreSubstrates(s); err != nil {
		return nil, err
	}
	return m, nil
}
