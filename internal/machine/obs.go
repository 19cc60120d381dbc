package machine

// Observability wiring: the machine-wide metrics registry and the
// structured trace spine (internal/obs).
//
// Registry: every component registers pointers to the cells of its
// Counters struct at construction, in a fixed order (CPU, TLB, bus,
// write buffer, memory, engine, scheduler, kernel — the fingerprint's
// order), so two identically built machines render byte-identical
// metric snapshots. The registry reads those same cells, so it always
// sees live, restore-aware state.
//
// Tracer: nil until EnableTrace. Enabling hands the one Trace to
// every emitting component (bus, scheduler, kernel; the DMA window
// spans ride on the bus). The trace's state is captured by Snapshot
// and rewound by Restore/NewFromSnapshot like every other metric —
// the rewind-with-the-world rule.

import "uldma/internal/obs"

// registerMetrics builds the machine's registry. Called once from
// NewWithClock; registration order is the deterministic render order.
func (m *Machine) registerMetrics() {
	r := obs.NewRegistry()

	// CPU, TLB, bus, write buffer, memory.
	m.CPU.RegisterMetrics(r)
	m.CPU.TLB().RegisterMetrics(r, "tlb.")
	m.Bus.RegisterMetrics(r)
	m.WB.RegisterMetrics(r)
	m.Mem.RegisterMetrics(r)

	// DMA engine, scheduler, kernel.
	m.Engine.RegisterMetrics(r)
	m.Runner.RegisterMetrics(r)
	m.Kernel.RegisterMetrics(r)

	// Virtual-address DMA plane — only on IOMMU-equipped machines, so
	// every other machine's registry dump stays byte-identical.
	if m.IOMMU != nil {
		m.IOMMU.RegisterMetrics(r)
		m.Engine.RegisterVAMetrics(r)
		m.Kernel.RegisterPagerMetrics(r)
	}

	m.Obs = r
}

// EnableTrace turns on the structured trace spine with the given
// capacity and overflow policy (max <= 0 means obs.DefaultTraceCap)
// and attaches it to every emitting component. Calling it again
// replaces the trace. Returns the trace for export.
func (m *Machine) EnableTrace(max int, policy obs.Policy) *obs.Trace {
	tr := obs.NewTrace(max, policy)
	m.AttachTracer(tr)
	return tr
}

// AttachTracer attaches an existing trace (shared by cluster nodes) to
// every emitting component, or detaches with nil.
func (m *Machine) AttachTracer(tr *obs.Trace) {
	m.Tracer = tr
	node := int32(m.NodeID)
	m.Bus.SetTracer(tr, node)
	m.Runner.SetTracer(tr, node)
	m.Kernel.SetTracer(tr, node)
}
