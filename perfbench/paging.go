package main

// The va_paging workload: virtual-address DMA that moves data. One pass
// runs core.PagingBench under the stall, bounce and pin recovery
// policies on a working set four times the pager's residency budget,
// core.MeasureIOTLB across working sets straddling the IOTLB size, and
// the benchmark's own paging world (the source of the machine-wide
// counters). Every cell streams at least 1000 page-sized transfers, so
// a p99 has at least ten samples beyond it. It is the only workload that
// reaches the IOMMU and the kernel pager; page-ins and bounce fix-up
// copies write beside the engine's reads.
//
// One op is one completed page-sized transfer. The seed sets the page
// order of the benchmark's own paging world; core.PagingBench and
// core.MeasureIOTLB take no seed, so their figures are the same on
// every seed.

import (
	"fmt"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

var pagingWorkload = &workload{
	name:   "va_paging",
	build:  pagingBuild,
	pass:   pagingPass,
	layers: pagingLayers,
}

// pageIn is the backing-store latency of the benchmark's own paging
// world, the figure core.PagingBench models.
const pageIn = 100 * sim.Microsecond

// Device address map of the paging world.
const (
	vaSrc = vm.VAddr(0x100000)
	vaDst = vm.VAddr(0x80000)
)

var pagingPolicies = []dma.RecoveryPolicy{dma.RecoverStall, dma.RecoverBounce, dma.RecoverPin}

// pagingWorld streams page-sized transfers in a seeded page order over
// a working set twice the pager budget, under stall-and-resolve.
type pagingWorld struct {
	m        *machine.Machine
	p        *proc.Process
	ok, fail int64
}

func buildPaging(o options, tr *tracer) (*pagingWorld, error) {
	method := userdma.ExtShadow{}
	cfg := userdma.VAConfigFor(method, 0)
	tok := tr.begin("machine.New")
	m, err := machine.New(cfg)
	tr.end(tok)
	if err != nil {
		return nil, err
	}
	m.Engine.SetRecoveryPolicy(dma.RecoverStall)
	if err := m.Kernel.EnablePager(o.sc.pagingBudget, pageIn); err != nil {
		return nil, err
	}
	w := &pagingWorld{m: m}
	pages := newRNG(o.seed, 0x9a6e).perm(o.sc.obsPages)
	ps := vm.VAddr(cfg.PageSize)
	var h *userdma.Handle
	w.p = m.NewProcess("stream", func(c *proc.Context) error {
		for i := 0; i < o.sc.obsTransfers; i++ {
			src := vaSrc + vm.VAddr(pages[i%len(pages)])*ps
			tok := tr.begin("core.Handle.DMA")
			st, err := h.DMA(c, src, vaDst, cfg.PageSize)
			tr.end(tok)
			if err != nil {
				return err
			}
			if st == userdma.StatusFailure {
				w.fail++
				continue
			}
			tok = tr.begin("core.Handle.Wait")
			err = h.Wait(c, 1<<20)
			tr.end(tok)
			if err != nil {
				return err
			}
			w.ok++
		}
		return nil
	})
	if h, err = method.Attach(m, w.p); err != nil {
		return nil, err
	}
	if _, err := userdma.SetupVAPages(m, w.p, h.Context(), vaSrc, o.sc.obsPages, vm.Read|vm.Write); err != nil {
		return nil, err
	}
	if _, err := userdma.SetupVAPages(m, w.p, h.Context(), vaDst, 1, vm.Read|vm.Write); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *pagingWorld) run(o options, tr *tracer) error {
	tok := tr.begin("machine.Run")
	err := w.m.Run(proc.NewRoundRobin(1<<20), 1<<32)
	tr.end(tok)
	if err != nil {
		return err
	}
	if w.p.Err() != nil {
		w.fail += int64(o.sc.obsTransfers) - w.ok - w.fail
	}
	w.m.Settle()
	return nil
}

// pagingBuild builds the benchmark's own paging world, plus one
// machine per core.PagingBench and core.MeasureIOTLB configuration.
func pagingBuild(o options, tr *tracer) error {
	for range pagingPolicies {
		m, err := machine.New(userdma.VAConfigFor(userdma.ExtShadow{}, 0))
		if err != nil {
			return err
		}
		if err := m.Kernel.EnablePager(o.sc.pagingBudget, pageIn); err != nil {
			return err
		}
	}
	for range o.sc.iotlbPages {
		if _, err := machine.New(userdma.VAConfigFor(userdma.ExtShadow{}, o.sc.iotlbEntries)); err != nil {
			return err
		}
	}
	_, err := buildPaging(o, tr)
	return err
}

func pagingPass(o options, tr *tracer, _ int) (passResult, error) {
	pr := passResult{counts: map[string]float64{}, sim: map[string]metric{}}
	c := pr.counts
	for _, policy := range pagingPolicies {
		r, err := span(tr, "core.PagingBench", func() (userdma.PagingResult, error) {
			return userdma.PagingBench(policy, o.sc.pagingPages, o.sc.pagingBudget, o.sc.transfers)
		})
		if err != nil {
			return pr, fmt.Errorf("paging %v: %w", policy, err)
		}
		done := int64(r.Completed)
		pr.ops += int64(r.Transfers)
		pr.failed += int64(r.Transfers) - done
		if policy == dma.RecoverPin && r.Faults != 0 {
			pr.failed += done // pin must pre-fault every page
		}
		pr.cells = append(pr.cells, cell{"paging/" + r.Policy, int64(r.Transfers), digest(r.Fingerprint, uint64(r.P50), uint64(r.P99))})
		pr.sim["xfer_p99_us."+r.Policy] = metric{value: micros(r.P99), n: done}
		c["paging.ops"] += float64(done)
		c["paging.va_faults"] += float64(r.Faults)
		c["paging.va_stalls"] += float64(r.Stalls)
		c["paging.va_bounced"] += float64(r.Bounced)
		c["paging.pager_evictions"] += float64(r.Evictions)
		c["paging.pager_page_ins"] += float64(r.PageIns)
	}
	for _, pages := range o.sc.iotlbPages {
		pt, err := span(tr, "core.MeasureIOTLB", func() (userdma.IOTLBPoint, error) {
			return userdma.MeasureIOTLB(pages, o.sc.iotlbEntries, o.sc.transfers)
		})
		if err != nil {
			return pr, fmt.Errorf("iotlb %d pages: %w", pages, err)
		}
		pr.ops += int64(pt.Transfers)
		pr.cells = append(pr.cells, cell{fmt.Sprintf("iotlb/%d", pages), int64(pt.Transfers), digest(pt.Fingerprint, pt.Hits, pt.Misses)})
		c["iotlb.ops"] += float64(pt.Transfers)
		c["iotlb.hits"] += float64(pt.Hits)
		c["iotlb.misses"] += float64(pt.Misses)
	}

	w, err := buildPaging(o, tr)
	if err != nil {
		return pr, fmt.Errorf("paging world: %w", err)
	}
	if err := w.run(o, tr); err != nil {
		return pr, fmt.Errorf("paging world: %w", err)
	}
	n := w.ok + w.fail
	pr.ops += n
	pr.failed += w.fail
	pr.cells = append(pr.cells, cell{"world", n, worldDigest(w.m)})
	addObs(c, w.m)
	c["obs.ops"] += float64(w.ok)
	return pr, nil
}

// pagingLayers takes the machine-wide counters from the benchmark's own
// paging world, the fault and pager counts from the core.PagingBench
// cells, and the IOTLB counts from the core.MeasureIOTLB cells.
func pagingLayers(ref passResult, tr *tracer, n int) map[string]float64 {
	c := ref.counts
	l := merge(machineLayers(c), hostLayers(tr, c, n))
	ops := c["paging.ops"]
	for _, k := range []string{"va_faults", "va_stalls", "va_bounced"} {
		l["dma."+k+"_per_op"] = ratio(c["paging."+k], ops)
	}
	for _, k := range []string{"pager_evictions", "pager_page_ins"} {
		l["kernel."+k+"_per_op"] = ratio(c["paging."+k], ops)
	}
	l["iommu.iotlb_hit_ratio"] = ratio(c["iotlb.hits"], c["iotlb.hits"]+c["iotlb.misses"])
	l["iommu.iotlb_misses_per_op"] = ratio(c["iotlb.misses"], c["iotlb.ops"])
	return l
}
