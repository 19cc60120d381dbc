package main

// The cluster_rpc workload: the paper's motivating network of
// workstations at scale. exp.RunScaleMachine runs a 256-node rack NOW,
// one full machine per node, on 2 shards. Load is open-loop in
// simulated time: each node runs 2 tenants at a fixed per-node arrival
// rate and every RPC is timed from its scheduled arrival. One pass runs
// the kernel and ext-shadow protocols. Initiation goes through
// Handle.DirectDMA inside the program, so the proc scheduler is never
// on the path; host time lands in the sim event queues and the net
// windows and barriers.
//
// One op is one completed RPC. The seed is the world seed (arrival
// jitter and peer choice).

import (
	"fmt"

	"uldma/internal/exp"
	"uldma/internal/sim"
)

var clusterWorkload = &workload{
	name:   "cluster_rpc",
	build:  clusterBuild,
	pass:   clusterPass,
	layers: clusterLayers,
	ladder: true,
}

var clusterProtocols = []string{"kernel", "extshadow"}

func clusterParams(o options, dur sim.Time) exp.Params {
	return exp.Params{
		Nodes:     o.sc.nodes,
		Shards:    o.sc.shards,
		Arrival:   o.sc.arrival,
		Tenants:   o.sc.tenants,
		ScaleDur:  dur,
		ScaleSeed: o.seed,
	}
}

// clusterBuild builds each protocol's world with a one-picosecond
// arrival window: every tenant issues exactly one RPC, so the cost is
// the world build (template pool on first use, then one hydration per
// node) plus a token of traffic.
func clusterBuild(o options, tr *tracer) error {
	for _, protocol := range clusterProtocols {
		if _, err := exp.RunScaleMachineNamed(protocol, clusterParams(o, 1), 1); err != nil {
			return fmt.Errorf("%s: %w", protocol, err)
		}
	}
	return nil
}

func clusterPass(o options, tr *tracer, workers int) (passResult, error) {
	pr := passResult{counts: map[string]float64{}, sim: map[string]metric{}}
	p := clusterParams(o, o.sc.dur)
	for _, protocol := range clusterProtocols {
		pt, err := span(tr, "exp.RunScaleMachine", func() (exp.ScaleMachinePoint, error) {
			return exp.RunScaleMachineNamed(protocol, p, workers)
		})
		if err != nil {
			return pr, fmt.Errorf("%s: %w", protocol, err)
		}
		done := int64(pt.Completed)
		pr.ops += int64(pt.Issued)
		pr.failed += int64(pt.Issued) - done
		pr.cells = append(pr.cells, cell{protocol, int64(pt.Issued), digest(pt.Fingerprint, pt.MachineDigest, uint64(pt.P50), uint64(pt.P99))})
		pr.sim["rpc_p99_us."+protocol] = metric{value: micros(pt.P99), n: done}
		if protocol == "extshadow" {
			pr.sim["rpc_p50_us."+protocol] = metric{value: micros(pt.P50), n: done}
		}
		c := pr.counts
		c["rpc.completed"] += float64(done)
		c["sim.events"] += float64(pt.Events)
		c["net.windows"] += float64(pt.Windows)
		c["net.deliveries"] += float64(pt.Deliveries)
		c["dma.started"] += float64(pt.EngStarted)
		c["dma.rejected"] += float64(pt.EngRejected)
		c["dma.bytes_moved"] += float64(pt.EngBytesMoved)
	}
	return pr, nil
}

func clusterLayers(ref passResult, tr *tracer, n int) map[string]float64 {
	c := ref.counts
	ops := c["rpc.completed"]
	l := hostLayers(tr, c, n)
	runNs, _ := tr.self("exp.RunScaleMachine")
	l["sim.events_per_op"] = ratio(c["sim.events"], ops)
	l["sim.host_ns_per_event"] = ratio(runNs, c["sim.events"]*float64(n))
	l["net.windows_per_op"] = ratio(c["net.windows"], ops)
	l["net.events_per_window"] = ratio(c["sim.events"], c["net.windows"])
	l["net.deliveries_per_op"] = ratio(c["net.deliveries"], ops)
	l["dma.started_per_op"] = ratio(c["dma.started"], ops)
	l["dma.rejected_ratio"] = ratio(c["dma.rejected"], c["dma.started"]+c["dma.rejected"])
	l["dma.bytes_moved_per_op"] = ratio(c["dma.bytes_moved"], ops)
	return l
}
