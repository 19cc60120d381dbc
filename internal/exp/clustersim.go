package exp

// The paper's motivating workload — NOW message passing — as an
// experiment: one cell per initiation method, each a fresh two-node
// cluster world, reporting per-message latency and the initiation
// share that makes OS-initiated DMA stop making sense as links get
// faster (§1, §2.2).

import (
	"errors"
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/net"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/stats"
	"uldma/internal/vm"
)

func init() {
	Register(&Experiment{
		Name:  "clustersim",
		Doc:   "NOW message passing: 2 workstations, per-message latency per initiation method",
		Cells: clusterCells,
		Render: map[Format]RenderFunc{
			Text: clusterText,
		},
	})
}

// ClusterMethods is the NOW comparison's method axis: the methods of
// the scale protocol line-up, in order.
func ClusterMethods() []userdma.Method {
	methods := make([]userdma.Method, len(scaleProtocols))
	for i, sp := range scaleProtocols {
		methods[i] = sp.method
	}
	return methods
}

// clusterLink resolves the link preset the params select.
func clusterLink(p Params) (net.LinkConfig, string) {
	if p.ATM {
		return net.ATM155(), "ATM-155"
	}
	return net.Gigabit(), "Gigabit"
}

// clusterFlagSlot is the byte offset of the doorbell flag word near the
// end of the receiver's 8 KiB mailbox page; the payload lands below it.
const clusterFlagSlot = 8160

func clusterCells(p Params) ([]Cell, error) {
	if p.MsgSize > clusterFlagSlot {
		// A larger payload would overwrite the flag word, and past the
		// page the engine refuses the send while the receiver polls on.
		return nil, fmt.Errorf("clustersim: %d-byte payload overruns the mailbox flag word at byte %d", p.MsgSize, clusterFlagSlot)
	}
	link, linkName := clusterLink(p)
	methods := ClusterMethods()
	cells := make([]Cell, len(methods))
	for i, method := range methods {
		method := method
		cells[i] = Cell{Method: method.Name(), Config: linkName, Run: func() (Obs, bool, error) {
			lat, initCost, sample, err := oneWayLatency(method, link, p.Msgs, p.MsgSize)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", method.Name(), err)
			}
			return Obs{Row{Name: method.Name(), Mean: lat, Init: initCost, Hist: sample}}, false, nil
		}}
	}
	return cells, nil
}

func clusterText(r *Result, p Params) string {
	_, linkName := clusterLink(p)
	var b strings.Builder
	fmt.Fprintf(&b, "NOW message passing — 2 workstations, %s link, %d×%dB messages\n\n",
		linkName, p.Msgs, p.MsgSize)
	tb := stats.NewTable("initiation method", "msg latency", "initiation", "init share")
	rows := Collect[Row](r)
	for _, row := range rows {
		tb.AddRow(row.Name, row.Mean, row.Init,
			fmt.Sprintf("%.0f%%", 100*float64(row.Init)/float64(row.Mean)))
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	if p.Hist {
		for _, row := range rows {
			fmt.Fprintf(&b, "latency distribution — %s:\n%s\n", row.Name, row.Hist.Histogram(8))
		}
	}
	b.WriteString("init share = fraction of one-way latency spent starting the DMA.\n")
	b.WriteString("The faster the link, the more the kernel trap dominates — the paper's thesis.\n")
	return b.String()
}

// ClusterRow is one initiation method's NOW result as the tools emit
// it in JSON, with the initiation share of the latency.
type ClusterRow struct {
	Method       string
	LatencyPs    int64
	InitiationPs int64
	InitShare    float64
}

// ClusterRows converts a clustersim result into its JSON rows.
func ClusterRows(r *Result) []ClusterRow {
	var out []ClusterRow
	for _, row := range Collect[Row](r) {
		out = append(out, ClusterRow{
			Method: row.Name, LatencyPs: int64(row.Mean), InitiationPs: int64(row.Init),
			InitShare: float64(row.Init) / float64(row.Mean),
		})
	}
	return out
}

// oneWayLatency measures mean send-to-receive latency: sender DMAs the
// payload into the receiver's mailbox, polls the transfer to
// completion and then remote-writes a sequence flag; the receiver polls
// the flag.
func oneWayLatency(method userdma.Method, link net.LinkConfig, msgs int, size uint64) (lat, initCost sim.Time, latencies *stats.Sample, err error) {
	cfg := userdma.ConfigFor(method)
	cluster, err := net.NewCluster(2, cfg, link)
	if err != nil {
		return 0, 0, nil, err
	}
	n0, n1 := cluster.Nodes[0], cluster.Nodes[1]

	const (
		srcVA   = vm.VAddr(0x10000) // sender payload page
		remVA   = vm.VAddr(0x20000) // sender's window into the receiver
		boxVA   = vm.VAddr(0x30000) // receiver's local mailbox
		mailbox = phys.Addr(0x80000)
	)

	var sendTimes []sim.Time
	var initSample, latSample stats.Sample

	var h *userdma.Handle
	sender := n0.NewProcess("sender", func(c *proc.Context) error {
		for i := 0; i < msgs; i++ {
			start := n0.Clock.Now()
			st, err := h.DMA(c, srcVA, remVA, size)
			if err != nil {
				return err
			}
			if st == dma.StatusFailure {
				return fmt.Errorf("message %d refused", i)
			}
			initSample.Add(n0.Clock.Now() - start)
			sendTimes = append(sendTimes, start)
			// The DMA is asynchronous: wait for it to complete so the
			// doorbell cannot overtake the payload. Repeated passing has
			// no user-level status to poll, so it sleeps on the
			// completion interrupt instead.
			err = h.Wait(c, 1_000_000)
			if errors.Is(err, userdma.ErrNoPoll) {
				err = h.WaitBlocking(c)
			}
			if err != nil {
				return err
			}
			// Doorbell: remote-write the sequence number after the data.
			if err := c.Store(remVA+clusterFlagSlot, phys.Size64, uint64(i+1)); err != nil {
				return err
			}
			if err := c.MB(); err != nil {
				return err
			}
			// Pace the sender so messages do not pile up in flight.
			for n0.Clock.Now() < start+200*sim.Microsecond {
				c.Spin(2000)
			}
		}
		return nil
	})

	receiver := n1.NewProcess("receiver", func(c *proc.Context) error {
		for i := 0; i < msgs; i++ {
			for {
				v, err := c.Load(boxVA+clusterFlagSlot, phys.Size64)
				if err != nil {
					return err
				}
				if v >= uint64(i+1) {
					break
				}
				c.Spin(500)
			}
			latSample.Add(n1.Clock.Now() - sendTimes[i])
		}
		return nil
	})

	// Sender setup. Attach first: context-carrying methods burn their
	// context id into the shadow mappings created below.
	h, err = method.Attach(n0, sender)
	if err != nil {
		return 0, 0, nil, err
	}
	frames, err := n0.SetupPages(sender, srcVA, 1, vm.Read|vm.Write)
	if err != nil {
		return 0, 0, nil, err
	}
	n0.Mem.Fill(frames[0], int(size), 0xab)
	if err := n0.Kernel.MapRemote(sender, remVA, 1, mailbox); err != nil {
		return 0, 0, nil, err
	}
	if err := n0.Kernel.MapShadow(sender, remVA); err != nil {
		return 0, 0, nil, err
	}
	if s1, ok := method.(userdma.SHRIMP1); ok {
		if err := s1.MapOutPage(n0, sender, srcVA, n0.Engine.Config().RemoteAddr(1, mailbox)); err != nil {
			return 0, 0, nil, err
		}
	}
	// Receiver setup: read-only view of its mailbox page.
	if err := n1.Kernel.MapFrame(receiver.AddressSpace(), boxVA, mailbox, vm.Read); err != nil {
		return 0, 0, nil, err
	}

	if err := cluster.RunRoundRobin(8, 1<<30); err != nil {
		return 0, 0, nil, err
	}
	if sender.Err() != nil {
		return 0, 0, nil, fmt.Errorf("sender: %w", sender.Err())
	}
	if receiver.Err() != nil {
		return 0, 0, nil, fmt.Errorf("receiver: %w", receiver.Err())
	}
	return latSample.Mean(), initSample.Mean(), &latSample, nil
}
