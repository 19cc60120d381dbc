package machine

// Steady-state fingerprinting for the convergence detector in
// internal/core. A Fingerprint is a fixed vector of machine-state
// words sampled between measurement iterations; the detector compares
// successive *deltas*, not the fingerprints themselves.
//
// Each word is one of two kinds, and the split is the whole trick:
//
//   - Linear words advance by a constant amount per identical
//     iteration: the clock, every activity counter, the engine
//     channel's busyUntil and transfer-bound sums, the TLB's LRU tick,
//     the kernel's SplitMix64 RNG position (state += constant per
//     draw). Their deltas repeat exactly in steady state.
//
//   - Hash words must be *identical* across steady-state iterations
//     (delta zero): the TLB's structural content (excluding LRU
//     stamps), the engine's register/FSM/control state with dead
//     values excluded. If any live decision-relevant state drifts,
//     the hash changes, the deltas differ, and fast-forward is
//     (correctly, conservatively) refused.
//
// If K consecutive iteration deltas are equal, every subsequent
// iteration is provably going to charge the same costs — the machine
// state that any decode or cost path can observe is either identical
// or advancing uniformly — so the harness can synthesize the remaining
// samples analytically and advance the clock in one step.

// FingerprintLen is the number of words in a Fingerprint.
const FingerprintLen = 55

// Fingerprint is one machine-state sample. Compare deltas with Delta.
type Fingerprint [FingerprintLen]uint64

// Delta returns the word-wise difference cur - prev (wrapping). In
// steady state the delta vector is the same every iteration.
func (cur *Fingerprint) Delta(prev *Fingerprint) Fingerprint {
	var d Fingerprint
	for i := range cur {
		d[i] = cur[i] - prev[i]
	}
	return d
}

// Fingerprint samples the machine's steady-state fingerprint. It is
// cheap (no allocation) and safe to call from guest code between
// instructions — the world is strictly serialized there.
func (m *Machine) Fingerprint() Fingerprint {
	var f Fingerprint
	i := 0
	put := func(v uint64) { f[i] = v; i++ }

	// Clock (linear).
	put(uint64(m.Clock.Now()))

	// CPU counters (linear).
	cs := m.CPU.Counters()
	put(cs.Instructions.Value())
	put(cs.Loads.Value())
	put(cs.Stores.Value())
	put(cs.RMWs.Value())
	put(cs.Barriers.Value())
	put(cs.DeviceAccess.Value())
	put(cs.MemoryAccess.Value())
	put(uint64(cs.ComputeCycles.Value()))

	// TLB: counters and LRU tick (linear), structure (hash).
	ts := m.CPU.TLB().Counters()
	put(ts.Hits.Value())
	put(ts.Misses.Value())
	put(m.CPU.TLB().Tick())
	put(m.CPU.TLB().StateHash())

	// Bus counters (linear).
	bs := m.Bus.Counters()
	put(bs.Loads.Value())
	put(bs.Stores.Value())
	put(bs.RMWs.Value())
	put(uint64(bs.BusyCycles.Value()))
	put(uint64(bs.StolenCycles.Value()))
	put(bs.Errors.Value())

	// Write buffer: counters (linear) and occupancy (hash-like; must
	// be identical in steady state).
	ws := m.WB.Counters()
	put(ws.Enqueued.Value())
	put(ws.Coalesced.Value())
	put(ws.LoadForwards.Value())
	put(ws.Drains.Value())
	put(ws.DrainedOps.Value())
	put(uint64(m.WB.Pending()))

	// Physical memory counters (linear).
	ms := m.Mem.Counters()
	put(ms.Reads.Value())
	put(ms.Writes.Value())
	put(ms.BytesRead.Value())
	put(ms.BytesWrote.Value())

	// DMA engine: counters (linear), channel/transfer clocks (linear),
	// register/FSM state (hash). Completed is deliberately absent: it
	// advances when a queued completion event fires, and under the
	// measurement loops the engine's 2 µs startup outruns the ~1 µs
	// initiation cadence, so completions fire at a rate incommensurate
	// with the iteration period. Firing one only flips bookkeeping
	// (delivered flag, Completed counter) that no decode or cost path
	// reads — status reads are analytic in the clock
	// (Transfer.Remaining) — so it cannot perturb a measurement.
	// BytesMoved stays: it moves with the same events but only for
	// payload-carrying transfers, whose burst deliveries also touch the
	// memory counters below — a deliberate brake on fast-forwarding any
	// loop with data movement still in flight.
	es := m.Engine.Counters()
	put(es.ShadowStores.Value())
	put(es.ShadowLoads.Value())
	put(es.KeyMismatches.Value())
	put(es.SeqResets.Value())
	put(es.Started.Value())
	put(es.Rejected.Value())
	put(es.BytesMoved.Value())
	put(es.AtomicOps.Value())
	put(es.RemoteStarted.Value())
	put(es.AbortedPending.Value())
	// Ring-engine counters (linear): doorbells rung, descriptors
	// posted, completion records written back. RingCompletions shares
	// Completed's event-cadence caveat above, but unlike Completed it
	// feeds a state the client CAN observe (the completion record in the
	// descriptor slot), so it must brake fast-forwarding while ring
	// deliveries are in flight.
	put(es.RingDoorbells.Value())
	put(es.RingPosted.Value())
	put(es.RingCompletions.Value())
	busy, lastBounds, ctxBounds := m.Engine.FingerprintLinear()
	put(uint64(busy))
	put(uint64(lastBounds))
	put(uint64(ctxBounds))
	// The engine hash word also carries the IOMMU/VA state (folded
	// inside Engine.StateHash, gated on an IOMMU being attached) and the
	// kernel pager's state (folded here, gated on its hash being
	// nonzero — which it only is on IOMMU-equipped machines). Machines
	// without an IOMMU put exactly Engine.StateHash, so pre-existing
	// fingerprints are bit-identical and FingerprintLen is unchanged.
	eh := m.Engine.StateHash()
	if ph := m.Kernel.PagerStateHash(); ph != 0 {
		eh = eh*0x100000001b3 ^ ph
	}
	put(eh)

	// The event queue is deliberately not fingerprinted. Its population
	// is the not-yet-fired completion bookkeeping discussed above: the
	// queue grows while the engine's busy horizon outruns the clock,
	// and drains at a cadence incommensurate with the iteration period.
	// What those events *do* when they fire is already covered — burst
	// deliveries move the memory and engine byte counters, finishes
	// flip state no cost path reads.

	// Scheduler counters (linear).
	rs := m.Runner.Counters()
	put(rs.Slots.Value())
	put(rs.Switches.Value())
	put(uint64(rs.SwitchTime.Value()))

	// Trace spine (linear): events offered and not-retained advance by
	// a constant per identical iteration when tracing is enabled, and
	// are zero when it is not (nil tracer).
	if m.Tracer != nil {
		put(m.Tracer.Emitted())
		put(m.Tracer.Dropped())
	} else {
		put(0)
		put(0)
	}

	// Kernel counters and RNG position (linear).
	ks := m.Kernel.Counters()
	put(ks.Syscalls.Value())
	put(ks.DMASyscalls.Value())
	put(ks.Faults.Value())
	put(m.Kernel.RNGState())

	if i != FingerprintLen {
		panic("machine: fingerprint layout out of sync with FingerprintLen")
	}
	return f
}
