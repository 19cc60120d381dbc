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
// tail latency. Both run the same stream (vaStream) and differ only in
// how they set the machine up and what they record.

import (
	"encoding/json"
	"fmt"
	"slices"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/stats"
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
	res := IOTLBPoint{Pages: pages, TLBEntries: tlbEntries, Transfers: transfers}
	var sum sim.Time
	m, _, err := vaStream("iotlb", tlbEntries, pages, transfers, nil,
		func(lat sim.Time) { sum += lat })
	if err != nil {
		return res, m, err
	}
	tc := m.IOMMU.IOTLB().Counters()
	res.Hits, res.Misses = tc.Hits.Value(), tc.Misses.Value()
	if total := res.Hits + res.Misses; total > 0 {
		res.HitRate = float64(res.Hits) / float64(total)
	}
	res.PerTransfer = sum / sim.Time(max(transfers, 1))
	res.Fingerprint = fingerprintDigest(m.Fingerprint())
	return res, m, nil
}

// vaStream is the world PagingBench and MeasureIOTLB measure: an
// ext-shadow machine built from VAConfigFor(tlbEntries), on which one
// process (named name) streams transfers full-page payloads cyclically
// from a pages-page source window to one destination page, waiting for
// each to be delivered. setup, if not nil, configures the machine
// before the process exists; record receives each transfer's
// initiate-to-delivered latency. It returns the settled world and the
// stream's elapsed simulated time.
func vaStream(name string, tlbEntries, pages, transfers int, setup func(*machine.Machine) error, record func(sim.Time)) (*machine.Machine, sim.Time, error) {
	method := ExtShadow{}
	cfg := VAConfigFor(method, tlbEntries)
	m, err := machine.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	if setup != nil {
		if err := setup(m); err != nil {
			return m, 0, err
		}
	}

	ps := vm.VAddr(cfg.PageSize)
	const srcBase, dstBase = vm.VAddr(0x100000), vm.VAddr(0x80000)
	var h *Handle
	var elapsed sim.Time
	p := m.NewProcess(name, func(c *proc.Context) error {
		t0 := m.Clock.Now()
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
			// Wait for real delivery (IOTLB refills and page-ins land
			// on the walk, not the initiation), so the latency
			// includes them.
			if err := h.Wait(c, 1<<20); err != nil {
				return err
			}
			record(m.Clock.Now() - start)
		}
		elapsed = m.Clock.Now() - t0
		return nil
	})
	h, err = method.Attach(m, p)
	if err != nil {
		return m, 0, err
	}
	// Under a pager, setup registers every device page with it; the
	// ones past the budget are registered non-resident and page in on
	// first use.
	if _, err := SetupVAPages(m, p, h.Context(), srcBase, pages, vm.Read|vm.Write); err != nil {
		return m, 0, err
	}
	if _, err := SetupVAPages(m, p, h.Context(), dstBase, 1, vm.Read|vm.Write); err != nil {
		return m, 0, err
	}
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<32); err != nil {
		return m, 0, err
	}
	if p.Err() != nil {
		return m, 0, p.Err()
	}
	m.Settle()
	return m, elapsed, nil
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
	// Completed counts the transfers that completed: every one of
	// Transfers when PagingBench returns no error.
	Completed int `json:"-"`
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
	res, _, err := pagingBench(policy, pages, budget, transfers)
	return res, err
}

// pagingBench is PagingBench, also returning the finished world.
func pagingBench(policy dma.RecoveryPolicy, pages, budget, transfers int) (PagingResult, *machine.Machine, error) {
	res := PagingResult{
		Policy:    policy.String(),
		Pages:     pages,
		Budget:    budget,
		Oversub:   float64(pages+1) / float64(budget),
		Transfers: transfers,
	}
	// One latency per transfer, sorted in place for the percentiles
	// (stats.Sample would sort a copy).
	lat := make([]sim.Time, 0, transfers)
	m, elapsed, err := vaStream("paging", 0, pages, transfers,
		func(m *machine.Machine) error {
			m.Engine.SetRecoveryPolicy(policy)
			return m.Kernel.EnablePager(budget, pagingPageIn)
		},
		func(d sim.Time) { lat = append(lat, d) })
	if err != nil {
		return res, m, err
	}

	res.Completed = len(lat)
	moved := float64(len(lat)) * float64(m.Cfg.PageSize)
	if elapsed > 0 {
		res.GoodputMBps = moved * float64(sim.Second) / float64(elapsed) / 1e6
	}
	slices.Sort(lat)
	res.P50, res.P99 = stats.Percentile(lat, 50), stats.Percentile(lat, 99)
	get := func(name string) uint64 {
		v, _ := m.Obs.Get(name)
		return v
	}
	res.Faults = get("dma.va_faults")
	res.Stalls = get("dma.va_stalls")
	res.Bounced = get("dma.va_bounced")
	res.Pins = get("dma.va_pins")
	res.Evictions = get("kernel.pager_evictions")
	res.PageIns = get("kernel.pager_page_ins")
	res.Elapsed = elapsed
	res.Fingerprint = fingerprintDigest(m.Fingerprint())
	return res, m, nil
}
