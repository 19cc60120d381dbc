package coll_test

import (
	"fmt"
	"log"

	"uldma/internal/coll"
	userdma "uldma/internal/core"
	"uldma/internal/net"
	"uldma/internal/proc"
)

// Example sums each workstation's rank+1 across a three-node cluster
// with a user-level all-reduce (fetch_and_add over the fabric + remote
// writes for the release).
func Example() {
	cluster, err := net.NewCluster(3, userdma.ConfigFor(userdma.ExtShadow{}), net.Gigabit())
	if err != nil {
		log.Fatal(err)
	}
	var comms []*coll.Comm
	procs := make([]*proc.Process, 3)
	for i := 0; i < 3; i++ {
		i := i
		procs[i] = cluster.Nodes[i].NewProcess(fmt.Sprintf("rank%d", i),
			func(c *proc.Context) error {
				total, err := comms[i].AllReduceSum(c, uint64(i+1))
				if err != nil {
					return err
				}
				if i == 0 {
					fmt.Println("global sum:", total)
				}
				return nil
			})
	}
	if comms, err = coll.New(cluster, procs); err != nil {
		log.Fatal(err)
	}
	if err := cluster.RunRoundRobin(4, 1_000_000); err != nil {
		log.Fatal(err)
	}
	// Output:
	// global sum: 6
}
