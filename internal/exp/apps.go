package exp

// The application-level sections of cmd/report: X5 (user-level vs
// kernel atomic operations) and the end-to-end costs of the libraries
// built on the primitives (msg channels, collectives). Each measurement
// is one world, so the cells fan out on the shared runner.

import (
	"fmt"
	"strings"

	"uldma/internal/coll"
	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/msg"
	"uldma/internal/net"
	"uldma/internal/proc"
	"uldma/internal/sim"
)

func init() {
	Register(&Experiment{
		Name:   "atomics",
		Doc:    "X5 — fetch_and_add at user level vs through a syscall",
		Cells:  func(Params) ([]Cell, error) { return []Cell{{Method: "fetch_and_add", Run: atomicsCell}}, nil },
		Render: map[Format]RenderFunc{Markdown: atomicsMarkdown},
	})
	Register(&Experiment{
		Name:   "libraries",
		Doc:    "msg channel and collective latencies on the user-level primitives",
		Cells:  librariesCells,
		Render: map[Format]RenderFunc{Markdown: librariesMarkdown},
	})
}

// atomicsCell times 200 fetch_and_adds each way on one extended-shadow
// machine and observes Rows "user-level" and "via syscall".
func atomicsCell() (Obs, bool, error) {
	m := machine.MustNew(machine.Alpha3000TC(dma.ModeExtended, 0))
	const cellVA = 0x50000
	var user, kern sim.Time
	p := m.NewProcess("b", func(c *proc.Context) error {
		if _, err := userdma.FetchAdd(c, cellVA, 0); err != nil {
			return err
		}
		start := m.Clock.Now()
		for i := 0; i < 200; i++ {
			if _, err := userdma.FetchAdd(c, cellVA, 1); err != nil {
				return err
			}
		}
		user = (m.Clock.Now() - start) / 200
		start = m.Clock.Now()
		for i := 0; i < 200; i++ {
			if _, err := userdma.KernelFetchAdd(c, cellVA, 1); err != nil {
				return err
			}
		}
		kern = (m.Clock.Now() - start) / 200
		return nil
	})
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), cellVA, 3); err != nil {
		return nil, false, err
	}
	if err := userdma.SetupAtomics(m, p, cellVA); err != nil {
		return nil, false, err
	}
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<62); err != nil {
		return nil, false, err
	}
	if p.Err() != nil {
		return nil, false, p.Err()
	}
	return Obs{Row{Name: "user-level", Mean: user}, Row{Name: "via syscall", Mean: kern}}, false, nil
}

func atomicsMarkdown(r *Result, _ Params) string {
	rows := Collect[Row](r)
	user, kern := rows[0].Mean, rows[1].Mean
	return fmt.Sprintf("\n## X5 — user-level vs kernel atomic operations\n\nfetch_and_add: user-level %v, via syscall %v (%.0fx)\n",
		user, kern, float64(kern)/float64(user))
}

// librariesCells: per-message stream latency at two payload sizes, then
// barrier and all-reduce latency at 4 ranks.
func librariesCells(Params) ([]Cell, error) {
	var cells []Cell
	for _, payload := range []int{64, 512} {
		payload := payload
		cells = append(cells, Cell{Method: "msg", Size: uint64(payload), Run: func() (Obs, bool, error) {
			per, err := msgStreamLatency(200, payload)
			return Obs{Row{Name: "msg", Mean: per}}, false, err
		}})
	}
	for _, op := range []string{"barrier", "allreduce"} {
		op := op
		cells = append(cells, Cell{Method: op, Config: "4 ranks", Run: func() (Obs, bool, error) {
			per, err := collectiveLatency(4, op, 100)
			return Obs{Row{Name: op, Mean: per}}, false, err
		}})
	}
	return cells, nil
}

func librariesMarkdown(r *Result, _ Params) string {
	var b strings.Builder
	b.WriteString("\n## Application libraries on the primitives\n")
	for _, c := range r.Cells {
		per := c.Obs[0].(Row).Mean
		if c.Cell.Method == "msg" {
			fmt.Fprintf(&b, "\n- msg channel, %3dB payloads: %v per message (zero kernel crossings)\n", c.Cell.Size, per)
		} else {
			fmt.Fprintf(&b, "- %s, 4 ranks: %v per operation\n", c.Cell.Method, per)
		}
	}
	return b.String()
}

func msgStreamLatency(count, payload int) (sim.Time, error) {
	method := userdma.ExtShadow{}
	cluster, err := net.NewCluster(2, userdma.ConfigFor(method), net.Gigabit())
	if err != nil {
		return 0, err
	}
	n0, n1 := cluster.Nodes[0], cluster.Nodes[1]
	var tx *msg.Sender
	var rx *msg.Receiver
	data := make([]byte, payload)
	sender := n0.NewProcess("tx", func(c *proc.Context) error {
		for i := 0; i < count; i++ {
			if err := tx.Send(c, data); err != nil {
				return err
			}
		}
		return nil
	})
	receiver := n1.NewProcess("rx", func(c *proc.Context) error {
		buf := make([]byte, payload)
		for i := 0; i < count; i++ {
			if _, err := rx.Recv(c, buf); err != nil {
				return err
			}
		}
		return nil
	})
	h, err := method.Attach(n0, sender)
	if err != nil {
		return 0, err
	}
	if tx, rx, err = msg.NewChannel(n0, sender, h, n1, receiver, 1, msg.Config{}); err != nil {
		return 0, err
	}
	start := cluster.Clock.Now()
	if err := cluster.RunRoundRobin(8, 1<<62); err != nil {
		return 0, err
	}
	if sender.Err() != nil {
		return 0, sender.Err()
	}
	if receiver.Err() != nil {
		return 0, receiver.Err()
	}
	return (cluster.Clock.Now() - start) / sim.Time(count), nil
}

func collectiveLatency(ranks int, op string, iters int) (sim.Time, error) {
	cluster, err := net.NewCluster(ranks, userdma.ConfigFor(userdma.ExtShadow{}), net.Gigabit())
	if err != nil {
		return 0, err
	}
	var comms []*coll.Comm
	procs := make([]*proc.Process, ranks)
	for i := 0; i < ranks; i++ {
		i := i
		procs[i] = cluster.Nodes[i].NewProcess(fmt.Sprintf("r%d", i), func(c *proc.Context) error {
			for k := 0; k < iters; k++ {
				switch op {
				case "barrier":
					if err := comms[i].Barrier(c); err != nil {
						return err
					}
				default:
					if _, err := comms[i].AllReduceSum(c, 1); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	if comms, err = coll.New(cluster, procs); err != nil {
		return 0, err
	}
	start := cluster.Clock.Now()
	if err := cluster.RunRoundRobin(4, 1<<62); err != nil {
		return 0, err
	}
	for _, p := range procs {
		if p.Err() != nil {
			return 0, p.Err()
		}
	}
	return (cluster.Clock.Now() - start) / sim.Time(iters), nil
}
