// Package bus models the workstation's I/O bus (TurboChannel in the
// paper's prototype; PCI in the paper's outlook) plus the CPU-side write
// buffer that sits in front of it.
//
// Everything the paper measures is, at bottom, a handful of *uncached bus
// transactions*: user-level DMA initiation is 2-5 loads/stores that cross
// this bus into the network interface's shadow-address window. The bus
// therefore carries the timing model: each transaction costs a fixed
// number of bus cycles (stores are cheaper than loads, which must wait
// for the reply), and devices may add per-access latency (e.g. the DMA
// engine's key check).
package bus

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/sim"
)

// Device is a bus target occupying a physical address window. The DMA
// engine, its shadow-address window, and its register-context pages are
// all Devices.
//
// Load and Store are invoked after the bus has charged its own
// transaction cycles; the returned extraCycles are additional *bus*
// cycles of device-side processing charged on top (0 for most accesses).
type Device interface {
	// Name identifies the device in traces and errors.
	Name() string
	// Load services a read of size bytes at absolute physical address
	// addr (guaranteed to be inside the device's mapped window).
	Load(now sim.Time, addr phys.Addr, size phys.AccessSize) (val uint64, extraCycles int64, err error)
	// Store services a write.
	Store(now sim.Time, addr phys.Addr, size phys.AccessSize, val uint64) (extraCycles int64, err error)
}

// RMWDevice is implemented by devices that support atomic
// read-modify-write bus transactions (the network interface's
// compare-and-exchange / atomic-operation unit). A device that does not
// implement it rejects RMW accesses.
type RMWDevice interface {
	Device
	// RMW atomically applies val at addr and returns the previous value
	// (exact semantics are device-defined: the DMA engine decodes an
	// operation from the address). Atomicity is inherent: the bus
	// arbiter holds the bus for the whole transaction.
	RMW(now sim.Time, addr phys.Addr, size phys.AccessSize, val uint64) (old uint64, extraCycles int64, err error)
}

// CostConfig gives the bus-cycle cost of each transaction type. The
// defaults in the machine presets are calibrated so the Alpha 3000/300 +
// 12.5 MHz TurboChannel model lands on the paper's Table 1.
type CostConfig struct {
	// StoreCycles is the total bus occupancy of a write transaction
	// (address + data phase). Writes are posted: the CPU does not wait
	// for a device acknowledgement.
	StoreCycles int64
	// LoadRequestCycles is the address phase of a read.
	LoadRequestCycles int64
	// LoadReplyCycles is the data-return phase of a read. The issuing
	// CPU stalls for request + device extra + reply.
	LoadReplyCycles int64
	// RMWExtraCycles is charged on top of a full load round trip for an
	// atomic read-modify-write (the bus is held locked while the device
	// applies the operation).
	RMWExtraCycles int64
}

// Counters counts bus traffic for utilization reports: the bus's live
// obs cells, registered with the machine's registry at construction
// and captured by value in snapshots so they rewind with the world.
type Counters struct {
	Loads        obs.Counter
	Stores       obs.Counter
	RMWs         obs.Counter
	BusyCycles   obs.Gauge // total bus cycles consumed by transactions
	StolenCycles obs.Gauge // extra cycles paid to DMA contention
	Errors       obs.Counter
}

// Error describes a failed bus transaction.
type Error struct {
	Op   string
	Addr phys.Addr
	Why  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("bus: %s at %v: %s", e.Op, e.Addr, e.Why)
}

type mapping struct {
	base phys.Addr
	size uint64
	dev  Device
}

// Bus is the I/O bus: an address decoder plus the transaction cost model.
// All uncached CPU accesses and all write-buffer drains pass through it.
// The bus advances the shared simulation clock by the cost of every
// transaction it carries.
type Bus struct {
	clock    *sim.Clock
	period   sim.Time // one bus cycle: the frequency's Period, computed once
	cost     CostConfig
	mappings []mapping // sorted by base
	ctr      Counters
	// hint is the decode of the last DeviceAt: the address range
	// [lo, hi] that one mapping covers (dev) or that lies in the gap
	// between two (dev nil). Every use re-checks addr against the
	// bounds, and Map resets it, so it can only answer what the search
	// would.
	hint decodeHint

	// tr is the obs trace spine (nil = tracing disabled, the zero-cost
	// fast path); node is the cluster node id stamped on events.
	tr   *obs.Trace
	node int32

	// DMA cycle stealing: while a bus-mastering transfer is active
	// (reserved by the engine), CPU transactions get every other cycle,
	// i.e. their bus time doubles. Windows are pruned as they expire.
	dmaWindows []stealWindow
}

type stealWindow struct{ start, end sim.Time }

// decodeHint is one decoded address range, bounds inclusive so that a
// gap running to the top of the address space fits. The zero hint
// covers only address 0, as a gap, which is right while nothing is
// mapped.
type decodeHint struct {
	lo, hi uint64
	dev    Device
}

// New creates a bus in the given clock domain.
func New(clock *sim.Clock, freq sim.Hz, cost CostConfig) *Bus {
	if clock == nil {
		panic("bus: nil clock")
	}
	if freq == 0 {
		panic("bus: zero frequency")
	}
	return &Bus{clock: clock, period: freq.Period(), cost: cost}
}

// Counters returns the traffic counters.
func (b *Bus) Counters() Counters { return b.ctr }

// RegisterMetrics publishes the bus's counters in a registry.
func (b *Bus) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("bus.loads", &b.ctr.Loads)
	r.RegisterCounter("bus.stores", &b.ctr.Stores)
	r.RegisterCounter("bus.rmws", &b.ctr.RMWs)
	r.RegisterGauge("bus.busy_cycles", &b.ctr.BusyCycles)
	r.RegisterGauge("bus.stolen_cycles", &b.ctr.StolenCycles)
	r.RegisterCounter("bus.errors", &b.ctr.Errors)
}

// SetTracer attaches (or, with nil, detaches) the obs trace spine.
// Every successful transaction is emitted as a CatBus instant, and
// every DMA bus-mastering window as a CatDMA span, stamped with node.
// Tests and dmabench -trace attach a trace of their own to assert on,
// or print, the exact access stream a method generates.
func (b *Bus) SetTracer(t *obs.Trace, node int32) {
	b.tr = t
	b.node = node
}

// Map attaches dev at the window [base, base+size). Windows must not
// overlap.
func (b *Bus) Map(dev Device, base phys.Addr, size uint64) error {
	if size == 0 {
		return &Error{Op: "map", Addr: base, Why: "empty window"}
	}
	end := uint64(base) + size
	if end < uint64(base) {
		return &Error{Op: "map", Addr: base, Why: "window wraps address space"}
	}
	for _, m := range b.mappings {
		mEnd := uint64(m.base) + m.size
		if uint64(base) < mEnd && end > uint64(m.base) {
			return &Error{Op: "map", Addr: base,
				Why: fmt.Sprintf("window overlaps device %q at %v", m.dev.Name(), m.base)}
		}
	}
	b.mappings = append(b.mappings, mapping{base: base, size: size, dev: dev})
	slices.SortFunc(b.mappings, func(x, y mapping) int { return cmp.Compare(x.base, y.base) })
	b.hint = decodeHint{lo: 1} // empty: lo > hi
	return nil
}

// DeviceAt returns the device mapped at addr, if any. The CPU uses this
// to classify a physical address as an uncached device access versus a
// plain memory access, and the bus decodes the same address again to
// carry the access, so consecutive calls mostly land in the range the
// last one decoded: that range is checked first.
func (b *Bus) DeviceAt(addr phys.Addr) (Device, bool) {
	a := uint64(addr)
	if h := &b.hint; a >= h.lo && a <= h.hi {
		return h.dev, h.dev != nil
	}
	i := sort.Search(len(b.mappings), func(i int) bool {
		return uint64(b.mappings[i].base)+b.mappings[i].size > a
	})
	h := decodeHint{hi: ^uint64(0)}
	if i > 0 {
		h.lo = uint64(b.mappings[i-1].base) + b.mappings[i-1].size
	}
	if i < len(b.mappings) {
		m := b.mappings[i]
		if a >= uint64(m.base) {
			h = decodeHint{lo: uint64(m.base), hi: uint64(m.base) + m.size - 1, dev: m.dev}
		} else {
			h.hi = uint64(m.base) - 1
		}
	}
	b.hint = h
	return h.dev, h.dev != nil
}

// IsDevice reports whether addr decodes to a mapped device window.
func (b *Bus) IsDevice(addr phys.Addr) bool {
	_, ok := b.DeviceAt(addr)
	return ok
}

// ReserveDMA marks [start, end) as a window in which a DMA transfer
// masters the bus. CPU transactions starting inside such a window pay
// double bus time (the engine takes alternate cycles). The machine
// wires the DMA engine to call this for every local transfer.
func (b *Bus) ReserveDMA(start, end sim.Time) {
	if end <= start {
		return
	}
	if b.tr != nil {
		b.tr.Span(start, end-start, obs.CatDMA, "bus-master", b.node, -1, uint64(start), uint64(end), 0)
	}
	b.dmaWindows = append(b.dmaWindows, stealWindow{start: start, end: end})
}

// contended reports whether a transaction starting now contends with a
// bus-mastering DMA, pruning expired windows as a side effect.
func (b *Bus) contended(now sim.Time) bool {
	live := b.dmaWindows[:0]
	hit := false
	for _, w := range b.dmaWindows {
		if w.end <= now {
			continue
		}
		live = append(live, w)
		if w.start <= now {
			hit = true
		}
	}
	b.dmaWindows = live
	return hit
}

// NextWindowEdge returns the earliest DMA-window start or end at or
// after from, or sim.Never: before it, every transaction contends
// exactly as one starting at from does.
func (b *Bus) NextWindowEdge(from sim.Time) sim.Time {
	next := sim.Never
	for _, w := range b.dmaWindows {
		for _, t := range [2]sim.Time{w.start, w.end} {
			if t >= from {
				next = min(next, t)
			}
		}
	}
	return next
}

func (b *Bus) charge(cycles int64) {
	if b.contended(b.clock.Now()) {
		b.ctr.StolenCycles.Add(cycles)
		cycles *= 2
	}
	b.ctr.BusyCycles.Add(cycles)
	b.clock.Advance(sim.Time(cycles) * b.period)
}

// Load performs an uncached read transaction. The clock is advanced by
// the full round trip (request + device latency + reply) before Load
// returns, modelling the CPU stall on an uncached load.
func (b *Bus) Load(addr phys.Addr, size phys.AccessSize) (uint64, error) {
	dev, ok := b.DeviceAt(addr)
	if !ok {
		b.ctr.Errors.Inc()
		return 0, &Error{Op: "load", Addr: addr, Why: "no device decodes this address"}
	}
	b.ctr.Loads.Inc()
	b.charge(b.cost.LoadRequestCycles)
	val, extra, err := dev.Load(b.clock.Now(), addr, size)
	if extra > 0 {
		b.charge(extra)
	}
	b.charge(b.cost.LoadReplyCycles)
	if err != nil {
		b.ctr.Errors.Inc()
		return 0, err
	}
	if b.tr != nil {
		b.tr.Instant(b.clock.Now(), obs.CatBus, "load", b.node, -1, uint64(addr), uint64(size), val)
	}
	return val, nil
}

// Store performs an uncached write transaction. Writes are posted, but
// the bus is still occupied for StoreCycles, and on a single-master
// system the issuing CPU (or its draining write buffer) pays that time.
func (b *Bus) Store(addr phys.Addr, size phys.AccessSize, val uint64) error {
	dev, ok := b.DeviceAt(addr)
	if !ok {
		b.ctr.Errors.Inc()
		return &Error{Op: "store", Addr: addr, Why: "no device decodes this address"}
	}
	b.ctr.Stores.Inc()
	b.charge(b.cost.StoreCycles)
	extra, err := dev.Store(b.clock.Now(), addr, size, val)
	if extra > 0 {
		b.charge(extra)
	}
	if err != nil {
		b.ctr.Errors.Inc()
		return err
	}
	if b.tr != nil {
		b.tr.Instant(b.clock.Now(), obs.CatBus, "store", b.node, -1, uint64(addr), uint64(size), val)
	}
	return nil
}

// RMW performs an atomic read-modify-write transaction: a locked load
// round trip plus RMWExtraCycles. The target device must implement
// RMWDevice.
func (b *Bus) RMW(addr phys.Addr, size phys.AccessSize, val uint64) (uint64, error) {
	dev, ok := b.DeviceAt(addr)
	if !ok {
		b.ctr.Errors.Inc()
		return 0, &Error{Op: "rmw", Addr: addr, Why: "no device decodes this address"}
	}
	rdev, ok := dev.(RMWDevice)
	if !ok {
		b.ctr.Errors.Inc()
		return 0, &Error{Op: "rmw", Addr: addr,
			Why: fmt.Sprintf("device %q does not support atomic transactions", dev.Name())}
	}
	b.ctr.RMWs.Inc()
	b.charge(b.cost.LoadRequestCycles)
	old, extra, err := rdev.RMW(b.clock.Now(), addr, size, val)
	if extra > 0 {
		b.charge(extra)
	}
	b.charge(b.cost.LoadReplyCycles + b.cost.RMWExtraCycles)
	if err != nil {
		b.ctr.Errors.Inc()
		return 0, err
	}
	if b.tr != nil {
		b.tr.Instant(b.clock.Now(), obs.CatBus, "rmw", b.node, -1, uint64(addr), uint64(size), val)
	}
	return old, nil
}
