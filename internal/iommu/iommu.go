// Package iommu models the I/O MMU the paper's successors (Psistakis/
// Katevenis: IOMMU support for virtual-address remote DMA) put between
// the DMA engine and physical memory. The shadow-address trick exists
// because the engine consumes physical addresses; with an IOMMU the
// engine consumes *device virtual addresses* instead, translated at
// walk time through per-context device page tables — so user code can
// hand untranslated buffers to the NIC, and so a page fault can strike
// in the middle of a transfer.
//
// The model reuses internal/vm's machinery wholesale: each DMA context
// owns a vm.AddressSpace (its ASID is the context number) as its
// device page table, and one shared vm.TLB is the IOTLB — ASID-tagged
// entries, LRU replacement, a one-entry L0 hint, and generation-tagged
// invalidation (an Unmap bumps the table generation, which makes every
// cached entry of that context stale without touching the slots). The
// hit path is 0 allocs/op (pinned by TestIOTLBHitZeroAllocs).
//
// Determinism contract: the IOMMU is pure data — no events, no
// goroutines. Its complete state (tables, IOTLB including LRU stamps,
// counters) snapshots and restores with the machine and folds into
// machine.Fingerprint via StateHash, so faulted transfers replay
// byte-identically from (seed, plan).
package iommu

import (
	"errors"
	"fmt"

	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/vm"
)

// DefaultTLBEntries is the IOTLB size used when Config.TLBEntries is
// zero — the same 32 slots as the 21064's data TLB the presets model.
const DefaultTLBEntries = 32

// Config sizes the IOMMU. Contexts and PageSize must match the DMA
// engine it fronts.
type Config struct {
	Contexts   int    // device translation contexts (one table each)
	PageSize   uint64 // device page size, power of two
	TLBEntries int    // IOTLB slots (0 = DefaultTLBEntries)
}

// IOMMU is the translation unit. One per machine, shared by every DMA
// context; all methods run on the world's single goroutine.
type IOMMU struct {
	cfg    Config
	tables []*vm.AddressSpace // per-context device page tables; asid == ctx
	tlb    *vm.TLB            // IOTLB: ASID-tagged, LRU, L0 hint
	ctr    Counters
}

// Counters are the IOMMU's management-plane obs cells. IOTLB hits and
// misses are the IOTLB's own cells (IOTLB().Counters()).
type Counters struct {
	Flushes obs.Counter // invalidation events (unmap generation bumps + explicit flushes)
	Maps    obs.Counter // Map calls
	Unmaps  obs.Counter // Unmap calls
	Faults  obs.Counter // translations that faulted (unmapped or protection)
}

// New builds an IOMMU. PageSize must be a power of two and Contexts at
// least 1.
func New(cfg Config) (*IOMMU, error) {
	if cfg.Contexts < 1 {
		return nil, fmt.Errorf("iommu: %d contexts", cfg.Contexts)
	}
	if cfg.PageSize == 0 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return nil, fmt.Errorf("iommu: page size %d is not a power of two", cfg.PageSize)
	}
	if cfg.TLBEntries == 0 {
		cfg.TLBEntries = DefaultTLBEntries
	}
	io := &IOMMU{cfg: cfg, tlb: vm.NewTLB(cfg.TLBEntries)}
	io.tables = make([]*vm.AddressSpace, cfg.Contexts)
	for ctx := range io.tables {
		io.tables[ctx] = vm.NewAddressSpace(ctx, cfg.PageSize)
	}
	return io, nil
}

func (io *IOMMU) table(ctx int) (*vm.AddressSpace, error) {
	if ctx < 0 || ctx >= len(io.tables) {
		return nil, fmt.Errorf("iommu: context %d out of range [0,%d)", ctx, len(io.tables))
	}
	return io.tables[ctx], nil
}

// Map installs a device-VA -> frame translation in ctx's table. Both
// addresses must be page-aligned (vm.AddressSpace enforces it).
func (io *IOMMU) Map(ctx int, va uint64, frame phys.Addr, prot vm.Prot) error {
	as, err := io.table(ctx)
	if err != nil {
		return err
	}
	if err := as.Map(vm.VAddr(va), frame, prot); err != nil {
		return err
	}
	io.ctr.Maps.Inc()
	return nil
}

// Unmap removes a translation. The table's generation bump makes every
// IOTLB entry cached for ctx stale — the "invalidation on unmap" the
// IOTLB contract requires — which the flush counter records as one
// invalidation event.
func (io *IOMMU) Unmap(ctx int, va uint64) error {
	as, err := io.table(ctx)
	if err != nil {
		return err
	}
	as.Unmap(vm.VAddr(va))
	io.ctr.Unmaps.Inc()
	io.ctr.Flushes.Inc()
	return nil
}

// Lookup probes ctx's page table without touching the IOTLB or any
// counter — the kernel pager's residency check.
func (io *IOMMU) Lookup(ctx int, va uint64) (vm.PTE, bool) {
	as, err := io.table(ctx)
	if err != nil {
		return vm.PTE{}, false
	}
	return as.Lookup(vm.VAddr(va))
}

// IOTLB exposes the translation cache, whose counters are the IOTLB
// hits and misses.
func (io *IOMMU) IOTLB() *vm.TLB { return io.tlb }

// RegisterMetrics registers the IOMMU's cells. The machine calls this
// only when an IOMMU is configured, so worlds without one keep their
// registry dump byte-identical.
func (io *IOMMU) RegisterMetrics(r *obs.Registry) {
	io.tlb.RegisterMetrics(r, "iommu.iotlb_")
	r.RegisterCounter("iommu.iotlb_flushes", &io.ctr.Flushes)
	r.RegisterCounter("iommu.maps", &io.ctr.Maps)
	r.RegisterCounter("iommu.unmaps", &io.ctr.Unmaps)
	r.RegisterCounter("iommu.faults", &io.ctr.Faults)
}

// errNotMapped is TranslateIO's fault for a device page its table does
// not map. The engine only needs to know that the walk faulted, so the
// page-out fault of every paged transfer allocates nothing.
var errNotMapped = errors.New("iommu: device page not mapped")

// TranslateIO implements dma.Translator: a device access is a store
// (write) or load, mapped onto vm's access kinds, resolved through one
// IOTLB probe that reads ctx's page table only on a miss. hit reports
// an IOTLB hit; the engine charges its miss penalty when false. A
// fault, counted in the fault counter, is the caller's signal to run a
// recovery policy: an unmapped page returns errNotMapped, so the
// page-out fault of every paged transfer allocates nothing, and a
// protection fault a *vm.Fault.
func (io *IOMMU) TranslateIO(ctx int, va uint64, write bool) (phys.Addr, bool, error) {
	as, err := io.table(ctx)
	if err != nil {
		return 0, false, err
	}
	access := vm.AccessLoad
	if write {
		access = vm.AccessStore
	}
	pa, hit, kind, ok := io.tlb.Probe(as, vm.VAddr(va), access)
	if !ok {
		io.ctr.Faults.Inc()
		if kind == vm.FaultUnmapped {
			return 0, false, errNotMapped
		}
		return 0, hit, &vm.Fault{VA: vm.VAddr(va), Access: access, Kind: kind, ASID: as.ASID()}
	}
	return pa, hit, nil
}

// IOPageSize implements dma.Translator.
func (io *IOMMU) IOPageSize() uint64 { return io.cfg.PageSize }

// IOContexts implements dma.Translator.
func (io *IOMMU) IOContexts() int { return len(io.tables) }

// IOStateHash implements dma.Translator.
func (io *IOMMU) IOStateHash() uint64 { return io.StateHash() }

// StateHash folds the IOMMU's complete architectural state — every
// context's table, the IOTLB's valid entries and LRU clock, and the
// counters — into one word. The DMA engine mixes it into its own
// StateHash (gated on an IOMMU being attached), which is how IOMMU
// state rides machine.Fingerprint without changing FingerprintLen.
func (io *IOMMU) StateHash() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 29
	}
	for _, as := range io.tables {
		mix(as.StateHash())
	}
	mix(io.tlb.StateHash())
	mix(io.tlb.Tick())
	s := io.tlb.Counters()
	mix(s.Hits.Value())
	mix(s.Misses.Value())
	mix(io.ctr.Flushes.Value())
	mix(io.ctr.Maps.Value())
	mix(io.ctr.Unmaps.Value())
	mix(io.ctr.Faults.Value())
	return h
}
