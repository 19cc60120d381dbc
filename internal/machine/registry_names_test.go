package machine_test

import (
	"slices"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/net"
	"uldma/internal/obs"
)

// tableOneNames is the registry of every Table-1 machine, in
// registration order. The order is wire format: BENCH_baseline.json's
// Metrics section renders it, and perfbench sums registry values by
// name, so a renamed metric would silently read 0 there.
var tableOneNames = []string{
	"cpu.instructions",
	"cpu.loads",
	"cpu.stores",
	"cpu.rmws",
	"cpu.barriers",
	"cpu.device_access",
	"cpu.memory_access",
	"cpu.compute_cycles",
	"tlb.hits",
	"tlb.misses",
	"bus.loads",
	"bus.stores",
	"bus.rmws",
	"bus.busy_cycles",
	"bus.stolen_cycles",
	"bus.errors",
	"wb.enqueued",
	"wb.coalesced",
	"wb.load_forwards",
	"wb.drains",
	"wb.drained_ops",
	"phys.reads",
	"phys.writes",
	"phys.bytes_read",
	"phys.bytes_wrote",
	"dma.shadow_stores",
	"dma.shadow_loads",
	"dma.key_mismatches",
	"dma.seq_resets",
	"dma.started",
	"dma.rejected",
	"dma.completed",
	"dma.bytes_moved",
	"dma.atomic_ops",
	"dma.remote_started",
	"dma.aborted_pending",
	"dma.ring_doorbells",
	"dma.ring_posted",
	"dma.ring_completions",
	"proc.slots",
	"proc.switches",
	"proc.switch_time_ps",
	"kernel.syscalls",
	"kernel.dma_syscalls",
	"kernel.faults",
	"kernel.ctx_waits",
	"kernel.ctx_steals",
}

// vaNames follows tableOneNames on IOMMU-equipped machines. No golden
// pins these; perfbench's va_paging workload reads them by name.
var vaNames = []string{
	"iommu.iotlb_hits",
	"iommu.iotlb_misses",
	"iommu.iotlb_flushes",
	"iommu.maps",
	"iommu.unmaps",
	"iommu.faults",
	"dma.va_stores",
	"dma.va_loads",
	"dma.va_started",
	"dma.va_faults",
	"dma.va_stalls",
	"dma.va_bounced",
	"dma.va_pins",
	"kernel.pager_evictions",
	"kernel.pager_page_ins",
	"kernel.pager_pins",
}

// clusterNames is a net.Cluster's own registry: the fabric's counters.
var clusterNames = []string{
	"net.messages",
	"net.bytes",
	"net.dropped",
	"net.remote_max",
	"net.delivered",
	"net.fault_dropped",
	"net.duplicated",
	"net.reordered",
}

// TestRegistryNames pins every registry's metric names and their order
// as literal lists: a plain Table-1 machine, an IOMMU-equipped
// machine, and a two-node cluster.
func TestRegistryNames(t *testing.T) {
	cfg := machine.Alpha3000TC(dma.ModeExtended, 0)
	cluster, err := net.NewCluster(2, cfg, net.Gigabit())
	if err != nil {
		t.Fatal(err)
	}
	names := func(r *obs.Registry) []string {
		var out []string
		for _, mv := range r.Snapshot() {
			out = append(out, mv.Name)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		got  []string
		want []string
	}{
		{"table1", names(machine.MustNew(cfg).Obs), tableOneNames},
		{"iommu", names(machine.MustNew(machine.EnableVirtualDMA(cfg)).Obs), slices.Concat(tableOneNames, vaNames)},
		{"cluster", names(cluster.Obs), clusterNames},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s registry:\n got %q\nwant %q", tc.name, tc.got, tc.want)
		}
	}
}
