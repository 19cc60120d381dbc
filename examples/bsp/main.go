// bsp: a bulk-synchronous scientific kernel on the NOW — the workload
// class the paper's introduction motivates ("high performance
// scientific computing" on workstation clusters).
//
// Four workstations each own a shard of a vector. Each superstep every
// rank computes a local partial sum (real loads from its simulated
// memory), the ranks combine it with an all-reduce built on user-level
// remote atomics, and a barrier closes the step. No kernel is entered
// after setup.
//
// Run with: go run ./examples/bsp
package main

import (
	"fmt"
	"log"

	"uldma/internal/coll"
	userdma "uldma/internal/core"
	"uldma/internal/net"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

const (
	ranks      = 4
	elemsEach  = 64 // 64 words per rank
	supersteps = 3
	shardVA    = vm.VAddr(0x80000)
)

func main() {
	cluster, err := net.NewCluster(ranks, userdma.ConfigFor(userdma.ExtShadow{}), net.Gigabit())
	if err != nil {
		log.Fatal(err)
	}

	var comms []*coll.Comm
	procs := make([]*proc.Process, ranks)
	totals := make([][]uint64, ranks)

	for i := 0; i < ranks; i++ {
		i := i
		procs[i] = cluster.Nodes[i].NewProcess(fmt.Sprintf("rank%d", i), func(c *proc.Context) error {
			comm := comms[i]
			for step := 1; step <= supersteps; step++ {
				// Local phase: scale the shard, then sum it with loads.
				var local uint64
				for e := 0; e < elemsEach; e++ {
					va := shardVA + vm.VAddr(8*e)
					v, err := c.Load(va, phys.Size64)
					if err != nil {
						return err
					}
					v *= uint64(step)
					if err := c.Store(va, phys.Size64, v); err != nil {
						return err
					}
					local += v
				}
				// Communication phase: global sum; synchronize.
				global, err := comm.AllReduceSum(c, local)
				if err != nil {
					return err
				}
				totals[i] = append(totals[i], global)
				if err := comm.Barrier(c); err != nil {
					return err
				}
			}
			return nil
		})
	}

	comms, err = coll.New(cluster, procs)
	if err != nil {
		log.Fatal(err)
	}
	// Shards: rank i's element e starts as i+1.
	for i := 0; i < ranks; i++ {
		frame, err := cluster.Nodes[i].Kernel.AllocPage(procs[i].AddressSpace(), shardVA, vm.Read|vm.Write)
		if err != nil {
			log.Fatal(err)
		}
		for e := 0; e < elemsEach; e++ {
			cluster.Nodes[i].Mem.Write(frame+phys.Addr(8*e), phys.Size64, uint64(i+1))
		}
	}

	if err := cluster.RunRoundRobin(6, 1<<62); err != nil {
		log.Fatal(err)
	}
	for i, p := range procs {
		if p.Err() != nil {
			log.Fatalf("rank %d: %v", i, p.Err())
		}
	}

	// Expected: sum over ranks of (i+1)*step! * elems.
	fact := uint64(1)
	for step := 1; step <= supersteps; step++ {
		fact *= uint64(step)
		want := uint64(0)
		for i := 0; i < ranks; i++ {
			want += uint64(i+1) * fact * elemsEach
		}
		got := totals[0][step-1]
		status := "OK"
		for i := 0; i < ranks; i++ {
			if totals[i][step-1] != want {
				status = fmt.Sprintf("MISMATCH at rank %d: %d", i, totals[i][step-1])
			}
		}
		fmt.Printf("superstep %d: global sum = %-8d (want %d) %s\n", step, got, want, status)
	}
	crossings := 0
	for _, n := range cluster.Nodes {
		crossings += int(n.Kernel.Counters().Syscalls)
	}
	fmt.Printf("kernel crossings across the whole computation: %d\n", crossings)
	fmt.Printf("fabric traffic: %d messages; finished at t=%v\n",
		cluster.Fabric.Counters().Messages, cluster.Clock.Now())
}
