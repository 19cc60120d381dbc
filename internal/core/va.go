package userdma

// Measurement harnesses for the virtual-address DMA plane (the vasweep
// and paging experiments in internal/exp).
//
// MeasureVAMethod is §3.4's methodology run through the IOMMU: the same
// zero-length initiation loop as MeasureMethod, but every data page is
// wired with Kernel.MapIOAS, so the process's shadow aliases point at
// the engine's VA window and every protocol store carries a device
// VIRTUAL address the engine translates at walk time. Because
// initiation only passes arguments (translation is deferred to the
// walk), the user-level instruction sequences are unchanged — the
// experiment's claim is that Table 1's ordering survives the IOMMU.
//
// MeasureIOTLB streams full-page payloads over a working set of device
// pages against a fixed-size IOTLB — the hit-rate sweep.
//
// PagingBench oversubscribes the kernel pager's residency budget and
// scores the three mid-transfer fault recovery policies (stall-and-
// resolve, bounce-buffer, kernel-assisted pin) by goodput and
// tail latency.

import (
	"encoding/json"
	"fmt"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// VAConfigFor returns the method's calibrated preset with the
// virtual-address DMA plane enabled. tlbEntries <= 0 keeps the IOMMU's
// default IOTLB size.
func VAConfigFor(m Method, tlbEntries int) machine.Config {
	cfg := machine.EnableVirtualDMA(ConfigFor(m))
	if tlbEntries > 0 {
		cfg.IOTLBEntries = tlbEntries
	}
	return cfg
}

// SetupVAPages is SetupPages' virtual-address twin: it allocates n data
// pages at base in p's address space and wires each for IOMMU-translated
// initiation on register context ctx (MapIOAS) instead of creating
// physical shadow aliases.
func SetupVAPages(m *machine.Machine, p *proc.Process, ctx int, base vm.VAddr, n int, prot vm.Prot) ([]phys.Addr, error) {
	frames := make([]phys.Addr, 0, n)
	ps := vm.VAddr(m.Cfg.PageSize)
	for i := 0; i < n; i++ {
		va := base + vm.VAddr(i)*ps
		frame, err := m.Kernel.AllocPage(p.AddressSpace(), va, prot)
		if err != nil {
			return nil, err
		}
		if err := m.Kernel.MapIOAS(p.AddressSpace(), ctx, va); err != nil {
			return nil, err
		}
		frames = append(frames, frame)
	}
	return frames, nil
}

// MeasureVAMethod runs iters IOMMU-translated initiations of method on
// a fresh machine built from cfg (use VAConfigFor) and returns the
// timing summary — MeasureMethod's loop, §3.4 methodology included,
// with the data pages wired through the IOMMU.
func MeasureVAMethod(method Method, cfg machine.Config, iters int) (InitiationResult, error) {
	return measureInitiations(method, cfg, iters, "vabench", func(m *machine.Machine, p *proc.Process, h *Handle) error {
		if m.IOMMU == nil {
			return fmt.Errorf("userdma: MeasureVAMethod: config has no IOMMU (use VAConfigFor)")
		}
		for _, base := range []vm.VAddr{measureSrc, measureDst} {
			if _, err := SetupVAPages(m, p, h.Context(), base, 1, vm.Read|vm.Write); err != nil {
				return err
			}
		}
		return nil
	})
}

// VACompareRow is one Table 1 row measured both ways: through the
// physical shadow window (the paper's numbers) and through the IOMMU's
// VA window.
type VACompareRow struct {
	Method     string
	Iterations int
	ShadowMean sim.Time `json:"ShadowMeanPs"` // physical shadow-window initiation
	VAMean     sim.Time `json:"VAMeanPs"`     // IOMMU-translated initiation
	PaperMean  sim.Time `json:"PaperMeanPs,omitempty"`
}

// MeasureVACompare measures one Table 1 row both ways, each on its
// method's calibrated preset.
func MeasureVACompare(method Method, iters int) (VACompareRow, error) {
	sh, err := MeasureMethod(method, ConfigFor(method), iters)
	if err != nil {
		return VACompareRow{}, fmt.Errorf("%s shadow: %w", method.Name(), err)
	}
	va, err := MeasureVAMethod(method, VAConfigFor(method, 0), iters)
	if err != nil {
		return VACompareRow{}, fmt.Errorf("%s va: %w", method.Name(), err)
	}
	return VACompareRow{
		Method:     method.Name(),
		Iterations: iters,
		ShadowMean: sh.Mean,
		VAMean:     va.Mean,
		PaperMean:  sh.PaperMean,
	}, nil
}

// IOTLBPoint is one (pages, tlbEntries) cell of the vasweep hit-rate
// sweep.
type IOTLBPoint struct {
	Pages       int // device-page working set the transfers cycle over
	TLBEntries  int
	Transfers   int
	Hits        uint64
	Misses      uint64
	HitRate     float64  // hits / (hits + misses)
	PerTransfer sim.Time `json:"PerTransferPs"` // mean initiate-to-delivered latency
	Fingerprint uint64
}

// MarshalJSON writes the row with Fingerprint as hex.
func (p IOTLBPoint) MarshalJSON() ([]byte, error) {
	type wire IOTLBPoint
	return json.Marshal(struct {
		wire
		Fingerprint string
	}{wire(p), hexDigest(p.Fingerprint)})
}

// MeasureIOTLB streams transfers full-page payloads cyclically over a
// working set of pages source pages against a tlbEntries-entry IOTLB
// and reports the translation hit rate. Cycling is LRU's worst case, so
// the hit rate collapses once the working set outgrows the IOTLB — the
// knee the sweep is after.
func MeasureIOTLB(pages, tlbEntries, transfers int) (IOTLBPoint, error) {
	res, _, err := measureIOTLB(pages, tlbEntries, transfers)
	return res, err
}

// measureIOTLB is MeasureIOTLB, also returning the finished world.
func measureIOTLB(pages, tlbEntries, transfers int) (IOTLBPoint, *machine.Machine, error) {
	method := ExtShadow{}
	cfg := VAConfigFor(method, tlbEntries)
	m, err := machine.New(cfg)
	if err != nil {
		return IOTLBPoint{}, nil, err
	}
	res := IOTLBPoint{Pages: pages, TLBEntries: tlbEntries, Transfers: transfers}

	ps := vm.VAddr(cfg.PageSize)
	const srcBase, dstBase = vm.VAddr(0x100000), vm.VAddr(0x80000)
	var h *Handle
	var sum sim.Time
	p := m.NewProcess("iotlb", func(c *proc.Context) error {
		for i := 0; i < transfers; i++ {
			src := srcBase + vm.VAddr(i%pages)*ps
			start := m.Clock.Now()
			st, err := h.DMA(c, src, dstBase, uint64(cfg.PageSize))
			if err != nil {
				return err
			}
			if st == dma.StatusFailure {
				return fmt.Errorf("userdma: transfer %d refused", i)
			}
			// Wait for real delivery (the IOTLB penalty lands on the
			// walk, not the initiation), so PerTransfer includes it.
			if err := h.Wait(c, 1<<20); err != nil {
				return err
			}
			sum += m.Clock.Now() - start
		}
		return nil
	})
	h, err = method.Attach(m, p)
	if err != nil {
		return res, m, err
	}
	if _, err := SetupVAPages(m, p, h.Context(), srcBase, pages, vm.Read|vm.Write); err != nil {
		return res, m, err
	}
	if _, err := SetupVAPages(m, p, h.Context(), dstBase, 1, vm.Read|vm.Write); err != nil {
		return res, m, err
	}
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<32); err != nil {
		return res, m, err
	}
	if p.Err() != nil {
		return res, m, p.Err()
	}
	m.Settle()
	tc := m.IOMMU.IOTLB().Counters()
	res.Hits, res.Misses = tc.Hits.Value(), tc.Misses.Value()
	if total := res.Hits + res.Misses; total > 0 {
		res.HitRate = float64(res.Hits) / float64(total)
	}
	res.PerTransfer = sum / sim.Time(max(transfers, 1))
	res.Fingerprint = fingerprintDigest(m.Fingerprint())
	return res, m, nil
}

// PagingResult is one (policy, oversubscription) cell of the paging
// experiment.
type PagingResult struct {
	Policy      string
	Pages       int     // device-page working set (source side)
	Budget      int     // pager residency budget
	Oversub     float64 // working set (src + dst) over budget
	Transfers   int
	GoodputMBps float64
	P50         sim.Time `json:"P50Ps"`
	P99         sim.Time `json:"P99Ps"`
	Elapsed     sim.Time `json:"ElapsedPs"`
	Faults      uint64   // device-side translation faults taken
	Stalls      uint64   // stall-and-resolve suspensions
	Bounced     uint64   // pages redirected through the bounce buffer
	Pins        uint64   // kernel-assisted pre-pins
	Evictions   uint64   // pager evictions (the oversubscription cost)
	PageIns     uint64
	Fingerprint uint64
	// Completed counts transfers actually issued: Transfers unless a
	// live observer (PagingBenchLive) cut the stream short.
	Completed int `json:"-"`
	// LiveSamples counts the mid-run live-feed readings an observer
	// took (0 on the plain PagingBench path).
	LiveSamples int `json:"-"`
}

// MarshalJSON writes the row with Fingerprint as hex.
func (r PagingResult) MarshalJSON() ([]byte, error) {
	type wire PagingResult
	return json.Marshal(struct {
		wire
		Fingerprint string
	}{wire(r), hexDigest(r.Fingerprint)})
}

// pagingPageIn is the modeled backing-store page-in latency. It dwarfs
// the 2 µs IOTLB refill deliberately: the experiment separates policies
// by how they overlap (or fail to overlap) this latency with the
// stream.
const pagingPageIn = 100 * sim.Microsecond

// PagingBench streams transfers full-page payloads cyclically over a
// pages-page working set with the kernel pager capped at budget
// resident device pages, under the given mid-transfer fault recovery
// policy. Cycling makes LRU evict exactly the page the stream needs
// next once the budget is oversubscribed, so every lap faults — the
// worst case the three policies are measured on.
func PagingBench(policy dma.RecoveryPolicy, pages, budget, transfers int) (PagingResult, error) {
	return PagingBenchLive(policy, pages, budget, transfers, nil)
}
