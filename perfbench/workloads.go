package main

// The workload registry, the run sizes, and the helpers every workload
// shares: the seeded generator, world digests, and the derivation of
// per-layer metrics from simulated counters and span self times.

import (
	"uldma/internal/machine"
	"uldma/internal/sim"
)

// scale sizes every workload. fullScale is what the benchmark measures;
// tests run tinyScale.
type scale struct {
	builds int // set-up world builds per run (the first is cold)

	// initiate
	table1Iters  int   // core.MeasureMethod iterations per method (the paper's 1000)
	mixProcs     int   // guest processes per multiprogrammed world (> register contexts)
	mixIters     int   // initiations per guest process
	quantum      int   // round-robin quantum, instruction slots
	directIters  int   // Handle.DirectDMA initiations per multiprogrammed world
	ringProcs    int   // ring-using processes in the ring world
	ringBatches  int   // depth-32 batches per ring process
	churnProcs   []int // core.RingChurnBench process counts
	churnBatches int

	// cluster_rpc
	nodes   int
	shards  int
	arrival int // RPCs per second per node
	tenants int
	dur     sim.Time // arrival window

	// va_paging
	pagingPages  int   // working set of the core.PagingBench cells
	pagingBudget int   // pager residency budget
	transfers    int   // transfers per core.PagingBench / core.MeasureIOTLB cell
	iotlbPages   []int // core.MeasureIOTLB working sets
	iotlbEntries int
	obsPages     int // working set of the benchmark's own paging world
	obsTransfers int
}

var fullScale = scale{
	builds: 15,

	table1Iters:  1000,
	mixProcs:     12,
	mixIters:     100,
	quantum:      9,
	directIters:  400,
	ringProcs:    4,
	ringBatches:  12,
	churnProcs:   []int{8, 16},
	churnBatches: 3,

	nodes:   256,
	shards:  2,
	arrival: 20000,
	tenants: 2,
	dur:     8 * sim.Millisecond,

	pagingPages:  32,
	pagingBudget: 8,
	transfers:    1024,
	iotlbPages:   []int{4, 8, 16},
	iotlbEntries: 8,
	obsPages:     16,
	obsTransfers: 256,
}

// order lists every workload, in BENCHMARK.json's order.
var order = []*workload{initiateWorkload, clusterWorkload, pagingWorkload}

// rng is SplitMix64: a small, fixed generator, so inputs depend on the
// seed alone and never on the Go release.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// digest folds words with FNV-1a.
func digest(words ...uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, w := range words {
		h ^= w
		h *= 0x100000001b3
	}
	return h
}

// worldDigest digests a machine's whole fingerprint.
func worldDigest(m *machine.Machine) uint64 {
	f := m.Fingerprint()
	return digest(f[:]...)
}

// addObs adds every counter of m's registry into counts, plus the
// bus busy time in picoseconds.
func addObs(counts map[string]float64, m *machine.Machine) {
	for _, mv := range m.Obs.Snapshot() {
		counts[mv.Name] += float64(mv.Value)
	}
	busy, _ := m.Obs.Get("bus.busy_cycles")
	counts["bus.busy_ps"] += float64(busy) * float64(sim.Second) / float64(m.Cfg.BusFreq)
}

// machineLayers derives the per-layer simulated metrics from counters
// summed over machines the benchmark built itself, per op of those
// machines (counts["obs.ops"]).
func machineLayers(c map[string]float64) map[string]float64 {
	ops := c["obs.ops"]
	per := func(name string) float64 { return ratio(c[name], ops) }
	return map[string]float64{
		"proc.slots_per_op":             per("proc.slots"),
		"proc.switches_per_op":          per("proc.switches"),
		"proc.switch_ps_per_op":         per("proc.switch_time_ps"),
		"cpu.instructions_per_op":       per("cpu.instructions"),
		"cpu.device_access_per_op":      per("cpu.device_access"),
		"vm.tlb_miss_ratio":             ratio(c["tlb.misses"], c["tlb.hits"]+c["tlb.misses"]),
		"bus.accesses_per_op":           ratio(c["bus.loads"]+c["bus.stores"]+c["bus.rmws"], ops),
		"bus.busy_ps_per_op":            per("bus.busy_ps"),
		"bus.wb_coalesce_ratio":         ratio(c["wb.coalesced"], c["wb.enqueued"]),
		"bus.stolen_cycles_per_op":      per("bus.stolen_cycles"),
		"dma.started_per_op":            per("dma.started"),
		"dma.rejected_ratio":            ratio(c["dma.rejected"], c["dma.started"]+c["dma.rejected"]),
		"dma.seq_resets_per_op":         per("dma.seq_resets"),
		"dma.key_mismatches_per_op":     per("dma.key_mismatches"),
		"dma.ring_posted_per_doorbell":  ratio(c["dma.ring_posted"], c["dma.ring_doorbells"]),
		"dma.bytes_moved_per_op":        per("dma.bytes_moved"),
		"dma.va_faults_per_op":          per("dma.va_faults"),
		"dma.va_stalls_per_op":          per("dma.va_stalls"),
		"dma.va_bounced_per_op":         per("dma.va_bounced"),
		"iommu.iotlb_hit_ratio":         ratio(c["iommu.iotlb_hits"], c["iommu.iotlb_hits"]+c["iommu.iotlb_misses"]),
		"iommu.iotlb_misses_per_op":     per("iommu.iotlb_misses"),
		"kernel.syscalls_per_op":        per("kernel.syscalls"),
		"kernel.ctx_waits_per_op":       per("kernel.ctx_waits"),
		"kernel.ctx_steals_per_op":      per("kernel.ctx_steals"),
		"kernel.pager_evictions_per_op": per("kernel.pager_evictions"),
		"kernel.pager_page_ins_per_op":  per("kernel.pager_page_ins"),
	}
}

// hostLayers derives the span-based per-layer metrics. c holds one
// pass's simulated counters and n is the number of traced passes, so
// c[x]*n is the work the traced spans covered.
func hostLayers(tr *tracer, c map[string]float64, n int) map[string]float64 {
	runNs, runCalls := tr.self("machine.Run")
	var guestNs float64
	for _, name := range []string{"core.Handle.DMA", "core.Handle.Wait", "core.Handle.DirectDMA", "core.RingHandle.Post", "core.RingHandle.Doorbell"} {
		ns, _ := tr.self(name)
		guestNs += ns
	}
	passes := float64(n)
	return map[string]float64{
		// Per slot, Run's whole duration: every slot handoff happens
		// inside a guest's own call, under a core span, so Run's self
		// time alone would miss it.
		"proc.host_ns_per_slot":            ratio(tr.total("machine.Run"), c["proc.slots"]*passes),
		"machine.Run.self_ms":              ratio(runNs, float64(runCalls)) / 1e6,
		"machine.New.self_us":              tr.selfPerCall("machine.New") / 1e3,
		"core.Handle.DMA.self_ns":          tr.selfPerCall("core.Handle.DMA"),
		"core.Handle.DirectDMA.self_ns":    tr.selfPerCall("core.Handle.DirectDMA"),
		"core.RingHandle.Post.self_ns":     tr.selfPerCall("core.RingHandle.Post"),
		"core.RingHandle.Doorbell.self_ns": tr.selfPerCall("core.RingHandle.Doorbell"),
		"core.MeasureMethod.self_us":       tr.selfPerCall("core.MeasureMethod") / 1e3,
		"core.RingChurnBench.self_us":      tr.selfPerCall("core.RingChurnBench") / 1e3,
		"core.PagingBench.self_ms":         tr.selfPerCall("core.PagingBench") / 1e6,
		"core.MeasureIOTLB.self_ms":        tr.selfPerCall("core.MeasureIOTLB") / 1e6,
		"exp.RunScaleMachine.self_ms":      tr.selfPerCall("exp.RunScaleMachine") / 1e6,
		"cpu.host_ns_per_instr":            ratio(guestNs, c["cpu.instructions"]*passes),
	}
}

// micros converts simulated time to simulated microseconds.
func micros(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// merge copies src into dst and returns dst.
func merge(dst, src map[string]float64) map[string]float64 {
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
