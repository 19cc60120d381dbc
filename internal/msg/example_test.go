package msg_test

import (
	"fmt"
	"log"

	userdma "uldma/internal/core"
	"uldma/internal/msg"
	"uldma/internal/net"
	"uldma/internal/proc"
)

// Example wires a channel between two workstations and moves one
// message: payload by user-level DMA, commit and credit by remote
// writes — no kernel crossing after setup.
func Example() {
	method := userdma.ExtShadow{}
	cluster, err := net.NewCluster(2, userdma.ConfigFor(method), net.Gigabit())
	if err != nil {
		log.Fatal(err)
	}
	n0, n1 := cluster.Nodes[0], cluster.Nodes[1]

	var tx *msg.Sender
	var rx *msg.Receiver
	sender := n0.NewProcess("sender", func(c *proc.Context) error {
		return tx.Send(c, []byte("hello, workstation 1"))
	})
	receiver := n1.NewProcess("receiver", func(c *proc.Context) error {
		buf := make([]byte, 64)
		n, err := rx.Recv(c, buf)
		if err != nil {
			return err
		}
		fmt.Printf("received %q\n", buf[:n])
		return nil
	})

	h, err := method.Attach(n0, sender)
	if err != nil {
		log.Fatal(err)
	}
	if tx, rx, err = msg.NewChannel(n0, sender, h, n1, receiver, 1, msg.Config{}); err != nil {
		log.Fatal(err)
	}
	if err := cluster.RunRoundRobin(8, 1_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel crossings: %d + %d\n",
		n0.Kernel.Counters().Syscalls, n1.Kernel.Counters().Syscalls)
	// Output:
	// received "hello, workstation 1"
	// kernel crossings: 0 + 0
}
