package main

// The metric catalogue: every name the benchmark reports, with its
// unit. BENCHMARK.json lists the same names (TestCatalogueMatchesManifest
// keeps the two in step). Units prefixed sim_ are on the simulated
// clock and are exact; every other time is host time.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// e2eMetrics are reported with --trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"t1_err_pct", "%", "lower"},
	{"sim_init_ns", "sim_ns", "lower"},
	{"rpc_p50_us.extshadow", "sim_us", "lower"},
	{"rpc_p99_us.extshadow", "sim_us", "lower"},
	{"rpc_p99_us.kernel", "sim_us", "lower"},
	{"xfer_p99_us.stall", "sim_us", "lower"},
	{"xfer_p99_us.bounce", "sim_us", "lower"},
	{"xfer_p99_us.pin", "sim_us", "lower"},
}

// layerMetrics are reported with --trace 1, every one on every
// workload; a layer the workload never reaches reads 0.
var layerMetrics = []metricDef{
	{"proc.slots_per_op", "1/op", "lower"},
	{"proc.switches_per_op", "1/op", "lower"},
	{"proc.switch_ps_per_op", "sim_ps/op", "lower"},
	{"proc.host_ns_per_slot", "ns", "lower"},
	{"machine.Run.self_ms", "ms", "lower"},
	{"machine.New.self_us", "us", "lower"},
	{"core.Handle.DMA.self_ns", "ns", "lower"},
	{"core.Handle.DirectDMA.self_ns", "ns", "lower"},
	{"core.RingHandle.Post.self_ns", "ns", "lower"},
	{"core.RingHandle.Doorbell.self_ns", "ns", "lower"},
	{"core.MeasureMethod.self_us", "us", "lower"},
	{"core.RingChurnBench.self_us", "us", "lower"},
	{"core.PagingBench.self_ms", "ms", "lower"},
	{"core.MeasureIOTLB.self_ms", "ms", "lower"},
	{"core.ff_engaged_ratio", "ratio", "higher"},
	{"cpu.instructions_per_op", "1/op", "lower"},
	{"cpu.device_access_per_op", "1/op", "lower"},
	{"cpu.host_ns_per_instr", "ns", "lower"},
	{"vm.tlb_miss_ratio", "ratio", "lower"},
	{"bus.accesses_per_op", "1/op", "lower"},
	{"bus.busy_ps_per_op", "sim_ps/op", "lower"},
	{"bus.wb_coalesce_ratio", "ratio", "higher"},
	{"bus.stolen_cycles_per_op", "1/op", "lower"},
	{"dma.started_per_op", "1/op", "lower"},
	{"dma.rejected_ratio", "ratio", "lower"},
	{"dma.seq_resets_per_op", "1/op", "lower"},
	{"dma.key_mismatches_per_op", "1/op", "lower"},
	{"dma.ring_posted_per_doorbell", "1/doorbell", "higher"},
	{"dma.bytes_moved_per_op", "B/op", "lower"},
	{"dma.va_faults_per_op", "1/op", "lower"},
	{"dma.va_stalls_per_op", "1/op", "lower"},
	{"dma.va_bounced_per_op", "1/op", "lower"},
	{"iommu.iotlb_hit_ratio", "ratio", "higher"},
	{"iommu.iotlb_misses_per_op", "1/op", "lower"},
	{"kernel.syscalls_per_op", "1/op", "lower"},
	{"kernel.ctx_waits_per_op", "1/op", "lower"},
	{"kernel.ctx_steals_per_op", "1/op", "lower"},
	{"kernel.pager_evictions_per_op", "1/op", "lower"},
	{"kernel.pager_page_ins_per_op", "1/op", "lower"},
	{"sim.events_per_op", "1/op", "lower"},
	{"sim.host_ns_per_event", "ns", "lower"},
	{"net.windows_per_op", "1/op", "lower"},
	{"net.events_per_window", "1/window", "higher"},
	{"net.deliveries_per_op", "1/op", "lower"},
	{"par.speedup_2w", "ratio", "higher"},
	{"exp.RunScaleMachine.self_ms", "ms", "lower"},
	{"setup.first_use_s", "s", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"trace.ops_per_s_untraced", "1/s", "higher"},
	{"trace.ops_per_s_traced", "1/s", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// unitOf returns the catalogue unit of a metric.
func unitOf(name string) string {
	for _, list := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

// ratio is a/b, or 0 when b is 0 (a layer the pass never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
