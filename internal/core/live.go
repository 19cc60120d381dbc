package userdma

// The live observation half of the paging harness: the same
// measurement as PagingBench, with a per-transfer live feed read off
// the obs plane's watch handles (obs.Registry.Watch) from INSIDE the
// running world.
//
// The feed is the steered experiment loop's window into a cell while
// it runs: each completed transfer hands the observer a LiveSample —
// the simulated instant, transfers done, and the fault/eviction
// counters so far — read through registration closures, never through
// simulated bus traffic. That makes the feed free by construction:
// 0 simulated picoseconds and 0 marginal allocations, pinned by
// TestLiveFeedZeroDelta (byte-identical PagingResult and world
// fingerprint with and without an observer attached) and
// TestLiveWatchZeroAllocs.
//
// The observer's return value is the early-abort hook: false stops the
// stream after the current transfer, which is how a steered driver can
// cut a cell that live data already shows dominated instead of paying
// for the rest of the measurement.

import (
	"fmt"
	"slices"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/stats"
	"uldma/internal/vm"
)

// LiveSample is one mid-run reading of a paging world, taken after a
// transfer completes.
type LiveSample struct {
	At        sim.Time // simulated instant of the reading
	Done      int      // transfers completed so far
	Faults    uint64   // dma.va_faults so far
	Evictions uint64   // kernel.pager_evictions so far
}

// PagingBenchLive is PagingBench with a live feed: after every
// completed transfer the harness reads the fault and eviction watch
// cells and hands the observer a LiveSample. Returning false aborts
// the remaining transfers (the result's Completed then counts what
// actually ran and the scores cover only that). A nil observer — or
// one that never vetoes — leaves the measurement byte-identical to
// PagingBench, fingerprint included: watch reads are closure calls
// into live component state, not simulated activity.
func PagingBenchLive(policy dma.RecoveryPolicy, pages, budget, transfers int, observe func(LiveSample) bool) (PagingResult, error) {
	res, _, err := pagingBench(policy, pages, budget, transfers, observe)
	return res, err
}

// pagingBench is PagingBenchLive, also returning the finished world.
func pagingBench(policy dma.RecoveryPolicy, pages, budget, transfers int, observe func(LiveSample) bool) (PagingResult, *machine.Machine, error) {
	method := ExtShadow{}
	cfg := VAConfigFor(method, 0)
	m, err := machine.New(cfg)
	if err != nil {
		return PagingResult{}, nil, err
	}
	m.Engine.SetRecoveryPolicy(policy)
	if err := m.Kernel.EnablePager(budget, pagingPageIn); err != nil {
		return PagingResult{}, m, err
	}
	res := PagingResult{
		Policy:    policy.String(),
		Pages:     pages,
		Budget:    budget,
		Oversub:   float64(pages+1) / float64(budget),
		Transfers: transfers,
	}
	wFaults, ok := m.Obs.Watch("dma.va_faults")
	if !ok {
		return res, m, fmt.Errorf("userdma: dma.va_faults not registered")
	}
	wEvict, ok := m.Obs.Watch("kernel.pager_evictions")
	if !ok {
		return res, m, fmt.Errorf("userdma: kernel.pager_evictions not registered")
	}

	ps := vm.VAddr(cfg.PageSize)
	const srcBase, dstBase = vm.VAddr(0x100000), vm.VAddr(0x80000)
	var h *Handle
	// One latency per transfer, sorted in place for the percentiles
	// (stats.Sample would sort a copy).
	lat := make([]sim.Time, 0, transfers)
	var elapsed sim.Time
	completed := 0
	p := m.NewProcess("paging", func(c *proc.Context) error {
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
			if err := h.Wait(c, 1<<20); err != nil {
				return err
			}
			lat = append(lat, m.Clock.Now()-start)
			completed = i + 1
			if observe != nil {
				res.LiveSamples++
				if !observe(LiveSample{
					At: m.Clock.Now(), Done: completed,
					Faults: wFaults.Value(), Evictions: wEvict.Value(),
				}) {
					break
				}
			}
		}
		elapsed = m.Clock.Now() - t0
		return nil
	})
	h, err = method.Attach(m, p)
	if err != nil {
		return res, m, err
	}
	// Setup registers every device page with the pager; the ones past
	// the budget are registered non-resident and page in on first use.
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

	res.Completed = completed
	moved := float64(completed) * float64(cfg.PageSize)
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
