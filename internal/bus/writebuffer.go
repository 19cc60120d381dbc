package bus

import (
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/sim"
)

// WriteBuffer models the CPU's posted-write buffer in front of the I/O
// bus. It is the hardware the paper's footnote 6 warns about:
//
//	"Some hardware devices (e.g. write buffers) may attempt to collapse
//	 successive read/write operations to the same address. In these
//	 cases appropriate memory barrier commands should be used to ensure
//	 that all issued instructions will reach the DMA engine."
//
// Two behaviours matter for the protocols:
//
//  1. Coalescing: a second store to an address already buffered merges
//     into the existing entry — the device sees ONE transaction. This
//     silently breaks "repeated passing of arguments", which depends on
//     the engine observing every repeated access.
//  2. Load forwarding: a load that hits a buffered store is serviced
//     from the buffer without any bus transaction, so the device never
//     sees the repeated load either.
//
// The MB (memory barrier) instruction drains the buffer, restoring the
// one-access-per-instruction property the protocols need. Experiment X3
// demonstrates both failure modes and the fix.
//
// Timing simplification: drains are synchronous — the CPU that forces an
// ordering point (load miss, MB, buffer full) pays the queued bus time
// right there. Since every initiation sequence ends with a status load,
// total initiation time equals the sum of its transaction times, which
// is how the paper's board behaved for back-to-back initiations to fresh
// addresses.
type WriteBuffer struct {
	bus        *Bus
	capacity   int
	coalesce   bool
	strictLoad bool // load misses drain the buffer (device-ordered)
	entries    []wbEntry
	ctr        WBCounters
}

type wbEntry struct {
	addr phys.Addr
	size phys.AccessSize
	val  uint64
}

// WBCounters counts write-buffer activity: the buffer's live obs
// cells, copied by value into snapshots so they rewind with the world.
type WBCounters struct {
	Enqueued     obs.Counter // stores accepted into the buffer
	Coalesced    obs.Counter // stores merged into an existing entry
	LoadForwards obs.Counter // loads serviced from the buffer
	Drains       obs.Counter // drain operations (MB, load miss, overflow)
	DrainedOps   obs.Counter // individual stores pushed to the bus by drains
}

// NewWriteBuffer creates a buffer of the given entry capacity in front of
// b. coalesce selects whether same-address stores merge (real hardware:
// yes; set false for the ablation in experiment X3).
func NewWriteBuffer(b *Bus, capacity int, coalesce bool) *WriteBuffer {
	if capacity < 1 {
		panic("bus: write buffer capacity must be >= 1")
	}
	return &WriteBuffer{
		bus: b, capacity: capacity, coalesce: coalesce, strictLoad: true,
		// The buffer never holds more than capacity entries, so one
		// allocation covers the buffer's whole lifetime: drains shrink
		// the slice but keep the backing array (see Drain).
		entries: make([]wbEntry, 0, capacity),
	}
}

// SetDrainOnLoadMiss selects the buffer's load-ordering behaviour.
// true (the default) models a device-ordered bus like TurboChannel: a
// load miss first drains every posted store, so device accesses arrive
// in program order even without barriers. false models an aggressively
// weakly-ordered machine: loads bypass posted stores, and ONLY an
// explicit MB establishes order — the environment the paper's §3.4
// memory-barrier remark is about (ablation X3).
func (w *WriteBuffer) SetDrainOnLoadMiss(on bool) { w.strictLoad = on }

// Counters returns the activity counters.
func (w *WriteBuffer) Counters() WBCounters { return w.ctr }

// RegisterMetrics publishes the buffer's counters in a registry.
func (w *WriteBuffer) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("wb.enqueued", &w.ctr.Enqueued)
	r.RegisterCounter("wb.coalesced", &w.ctr.Coalesced)
	r.RegisterCounter("wb.load_forwards", &w.ctr.LoadForwards)
	r.RegisterCounter("wb.drains", &w.ctr.Drains)
	r.RegisterCounter("wb.drained_ops", &w.ctr.DrainedOps)
}

// Pending reports the number of buffered stores.
func (w *WriteBuffer) Pending() int { return len(w.entries) }

// Store posts an uncached write. The issuing CPU is charged only the
// cheap enqueue (modelled by the caller as an instruction-issue cost);
// bus time is paid when the entry drains. If the buffer is full it is
// drained first.
func (w *WriteBuffer) Store(clock *sim.Clock, enqueueCost sim.Time, addr phys.Addr, size phys.AccessSize, val uint64) error {
	clock.Advance(enqueueCost)
	// Fast path: an empty buffer (the common case — most initiation
	// sequences drain between stores) skips the coalesce scan and goes
	// straight to the append, which never allocates (capacity is
	// preallocated and preserved across drains).
	if w.coalesce && len(w.entries) > 0 {
		for i := range w.entries {
			if w.entries[i].addr == addr && w.entries[i].size == size {
				w.entries[i].val = val
				w.ctr.Coalesced.Inc()
				return nil
			}
		}
	}
	if len(w.entries) >= w.capacity {
		if err := w.Drain(); err != nil {
			return err
		}
	}
	w.entries = append(w.entries, wbEntry{addr: addr, size: size, val: val})
	w.ctr.Enqueued.Inc()
	return nil
}

// Load performs an uncached read with buffer semantics: a hit on a
// buffered store is forwarded without touching the bus (the collapse
// hazard); a miss drains the buffer (uncached ordering) and then issues
// the bus read.
func (w *WriteBuffer) Load(addr phys.Addr, size phys.AccessSize) (uint64, error) {
	if len(w.entries) == 0 {
		// Fast path: nothing posted — no forwarding possible, nothing
		// to drain; issue the bus read directly.
		return w.bus.Load(addr, size)
	}
	if w.coalesce {
		// Newest matching entry wins (program order).
		for i := len(w.entries) - 1; i >= 0; i-- {
			if w.entries[i].addr == addr && w.entries[i].size == size {
				w.ctr.LoadForwards.Inc()
				return w.entries[i].val, nil
			}
		}
	}
	if w.strictLoad {
		if err := w.Drain(); err != nil {
			return 0, err
		}
	}
	return w.bus.Load(addr, size)
}

// RMW performs an atomic read-modify-write: buffered stores drain first
// (atomics are ordering points on every real machine), then the locked
// transaction issues.
func (w *WriteBuffer) RMW(addr phys.Addr, size phys.AccessSize, val uint64) (uint64, error) {
	if err := w.Drain(); err != nil {
		return 0, err
	}
	return w.bus.RMW(addr, size, val)
}

// Drain pushes every buffered store onto the bus in FIFO order. This is
// the effect of the MB instruction, and also runs implicitly before any
// load miss. The first store error aborts the drain; remaining entries
// stay queued.
func (w *WriteBuffer) Drain() error {
	if len(w.entries) == 0 {
		return nil
	}
	w.ctr.Drains.Inc()
	for i := range w.entries {
		e := &w.entries[i]
		if err := w.bus.Store(e.addr, e.size, e.val); err != nil {
			// Keep the not-yet-pushed tail queued, compacted to the
			// front of the same backing array.
			n := copy(w.entries, w.entries[i:])
			w.entries = w.entries[:n]
			return err
		}
		w.ctr.DrainedOps.Inc()
	}
	// Empty the buffer but keep the backing array: the next Store
	// appends without allocating.
	w.entries = w.entries[:0]
	return nil
}
