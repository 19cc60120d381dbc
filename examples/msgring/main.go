// msgring: a three-workstation ring exchanging messages with the msg
// library — payload by user-level DMA, headers and credits by remote
// writes, zero kernel crossings after setup.
//
// A token message circulates the ring; every hop appends its node id.
// At the end we print the token's journey and each kernel's syscall
// counter (spoiler: all zero).
//
// Run with: go run ./examples/msgring
package main

import (
	"fmt"
	"log"

	userdma "uldma/internal/core"
	"uldma/internal/msg"
	"uldma/internal/net"
	"uldma/internal/proc"
)

const (
	nodes  = 3
	rounds = 2
)

func main() {
	method := userdma.ExtShadow{}
	cluster, err := net.NewCluster(nodes, userdma.ConfigFor(method), net.Gigabit())
	if err != nil {
		log.Fatal(err)
	}

	// One process per node; channels i -> (i+1) % nodes.
	procs := make([]*proc.Process, nodes)
	tx := make([]*msg.Sender, nodes)
	rx := make([]*msg.Receiver, nodes)
	var journey []byte

	for i := 0; i < nodes; i++ {
		i := i
		procs[i] = cluster.Nodes[i].NewProcess(fmt.Sprintf("node%d", i), func(c *proc.Context) error {
			buf := make([]byte, 128)
			if i == 0 {
				// Kick off the token.
				if err := tx[0].Send(c, []byte{'0'}); err != nil {
					return err
				}
			}
			hops := rounds
			if i == 0 {
				hops = rounds // node 0 also receives the final arrival
			}
			for h := 0; h < hops; h++ {
				n, err := rx[i].Recv(c, buf)
				if err != nil {
					return err
				}
				token := append(buf[:n:n], byte('0'+i))
				if i == 0 && h == hops-1 {
					journey = token // final arrival: keep, stop forwarding
					return nil
				}
				if err := tx[i].Send(c, token); err != nil {
					return err
				}
			}
			return nil
		})
	}

	// Wire the ring (Attach before channel setup: context ids go into
	// the shadow mappings).
	for i := 0; i < nodes; i++ {
		h, err := method.Attach(cluster.Nodes[i], procs[i])
		if err != nil {
			log.Fatal(err)
		}
		next := (i + 1) % nodes
		tx[i], rx[next], err = msg.NewChannel(
			cluster.Nodes[i], procs[i], h,
			cluster.Nodes[next], procs[next], next,
			msg.Config{Slots: 4, SlotPayload: 128})
		if err != nil {
			log.Fatal(err)
		}
	}

	if err := cluster.RunRoundRobin(8, 1<<62); err != nil {
		log.Fatal(err)
	}
	for i, p := range procs {
		if p.Err() != nil {
			log.Fatalf("node %d: %v", i, p.Err())
		}
	}

	fmt.Printf("token journey: %s (started at node 0, %d rounds around %d nodes)\n",
		journey, rounds, nodes)
	fmt.Printf("fabric: %d messages, %d bytes\n",
		cluster.Fabric.Counters().Messages, cluster.Fabric.Counters().Bytes)
	for i, n := range cluster.Nodes {
		fmt.Printf("node %d kernel crossings after setup: %d\n", i, n.Kernel.Counters().Syscalls)
	}
	fmt.Printf("finished at simulated t=%v\n", cluster.Clock.Now())
}
