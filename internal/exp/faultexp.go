package exp

// The fault-plane experiments: what reliability costs on a NOW whose
// links misbehave. All three ride the same substrate — a two-node (or,
// for the search, one-node loopback) cluster whose fabric carries an
// internal/fault plane, with the reliable user-level channel
// (msg.NewReliableChannel) on top:
//
//   - faultsweep: goodput and p50/p99 per-message latency across a
//     drop-rate × payload-size grid, with the recovery traffic
//     (retransmissions, re-credits) the plane forced;
//   - recovery: time-to-recover after a link-down window of varying
//     length — how long after the link heals until the first payload
//     lands again;
//   - faultsearch: a bounded model-checking hunt (proc.Explore) over
//     scheduler interleavings × seeded fault plans, asserting
//     exactly-once in-order delivery; a violating (seed, schedule)
//     pair stops the sweep and is reported in replayable form.
//
// Every cell owns its world and its seeded plane, so the cells fan out
// on the worker pool with byte-identical results for any -procs value.

import (
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/fault"
	"uldma/internal/msg"
	"uldma/internal/net"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/stats"
)

func init() {
	Register(&Experiment{
		Name:  "faultsweep",
		Doc:   "reliable channel under loss: goodput and p50/p99 latency across drop rate x size",
		Cells: faultSweepCells,
		Render: map[Format]RenderFunc{
			Text:     faultSweepText,
			Markdown: faultSweepMarkdown,
		},
		JSON: func(r *Result, _ Params, d *Doc) { d.Fault = Collect[FaultPoint](r) },
	})
	Register(&Experiment{
		Name:  "recovery",
		Doc:   "link-down outage windows: time until the reliable stream moves again",
		Cells: recoveryCells,
		Render: map[Format]RenderFunc{
			Text:     recoveryText,
			Markdown: recoveryMarkdown,
		},
		JSON: func(r *Result, _ Params, d *Doc) { d.Recovery = Collect[RecoveryPoint](r) },
	})
	Register(&Experiment{
		Name:  "faultsearch",
		Doc:   "bounded interleaving x fault-plan search for exactly-once in-order delivery",
		Cells: faultSearchCells,
		Render: map[Format]RenderFunc{
			Text:     faultSearchText,
			Markdown: faultSearchMarkdown,
		},
	})
}

// FaultPoint is one (drop rate, payload size) cell of the faultsweep.
type FaultPoint struct {
	Label string // unique grid label, e.g. "drop=0.05/256B"
	Drop  float64
	Size  uint64
	Msgs  int

	Mean sim.Time `json:"MeanPs"` // mean send-to-deliver latency
	P50  sim.Time `json:"P50Ps"`
	P99  sim.Time `json:"P99Ps"`
	// GoodputMBps is delivered payload bytes per simulated second,
	// first send to last delivery, in MB/s (1 MB = 1e6 bytes).
	GoodputMBps float64

	Retransmits uint64 // messages retransmitted by the sender
	Timeouts    uint64 // retransmit rounds fired
	Recredits   uint64 // receiver re-wrote its credit word
	Dropped     uint64 // fabric payloads the plane killed
	Delivered   uint64 // fabric payloads landed
}

// RecoveryPoint is one outage-length cell of the recovery experiment.
type RecoveryPoint struct {
	Label  string   // e.g. "down=500µs"
	Outage sim.Time `json:"OutagePs"` // length of the link-down window
	// Recover is the gap between the link healing and the first
	// delivery after it — the retransmit machinery's reaction time.
	Recover sim.Time `json:"RecoverPs"`
	// Complete is when the last message of the stream landed.
	Complete    sim.Time `json:"CompletePs"`
	Retransmits uint64
	Timeouts    uint64
}

// FaultSearchPoint is one seed's slice of the faultsearch hunt.
type FaultSearchPoint struct {
	Label     string // e.g. "seed=3"
	Seed      uint64
	Schedules int    // complete schedules model-checked
	Violation string `json:",omitempty"` // "" when every schedule delivered exactly-once in-order
}

// FaultDrops is the faultsweep's canonical drop-rate axis. Zero is the
// control row: a zero-fault plane is inert, so it doubles as the
// pay-for-what-you-use baseline.
func FaultDrops() []float64 { return []float64{0, 0.05, 0.20} }

// FaultSizes is the faultsweep's payload axis (bytes; slot payloads,
// multiples of 8 that keep a 4-slot ring inside the channel window).
func FaultSizes() []uint64 { return []uint64{64, 256, 960} }

// RecoveryOutages is the recovery experiment's outage-length axis.
func RecoveryOutages() []sim.Time {
	return []sim.Time{200 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond}
}

// FaultPlanForSeed derives the faultsearch's (and the property test
// family's) random-but-replayable plan from one integer, so a failing
// report names the whole scenario by its seed.
func FaultPlanForSeed(seed uint64) fault.Plan {
	prng := sim.NewRand(seed * 0x9e3779b97f4a7c15)
	return fault.Plan{Default: fault.LinkFaults{
		Drop:      float64(prng.Intn(25)) / 100,
		Dup:       float64(prng.Intn(15)) / 100,
		Reorder:   float64(prng.Intn(20)) / 100,
		ReorderBy: 15 * sim.Microsecond,
		Jitter:    sim.Time(prng.Intn(4)) * sim.Microsecond,
	}}
}

// streamResult is what one reliable-stream world reports back.
type streamResult struct {
	latency   stats.Sample // per message: delivery time - send start
	sendTimes []sim.Time
	recvTimes []sim.Time
	bytes     uint64
	tx        msg.RCounters
	rx        msg.RCounters
	fabric    net.FabricCounters
}

// faultPoint summarizes the stream as one faultsweep row.
func (r *streamResult) faultPoint(label string, drop float64, size uint64, msgs int) FaultPoint {
	elapsed := r.recvTimes[len(r.recvTimes)-1] - r.sendTimes[0]
	return FaultPoint{
		Label: label, Drop: drop, Size: size, Msgs: msgs,
		Mean: r.latency.Mean(), P50: r.latency.Percentile(50), P99: r.latency.Percentile(99),
		GoodputMBps: float64(r.bytes) / (float64(elapsed) / 1e12) / 1e6,
		Retransmits: r.tx.Retransmits.Value(), Timeouts: r.tx.Timeouts.Value(),
		Recredits: r.rx.Recredits.Value(),
		Dropped:   r.fabric.FaultDropped.Value(), Delivered: r.fabric.Delivered.Value(),
	}
}

// fmsg deterministically fills buf for message i (and is what the
// receiver checks against, so a sweep cell doubles as a correctness
// assertion, not just a stopwatch).
func fmsg(i int, buf []byte) {
	for k := range buf {
		buf[k] = byte(i*131 + k*7 + 1)
	}
}

// reliableStream drives total messages of size bytes through a
// fresh two-node cluster behind (plan, seed). pace > 0 spaces the send
// starts; linger keeps the receiver answering retransmissions after
// the last delivery (needed whenever the plan can eat the final ack).
func reliableStream(plan fault.Plan, seed uint64, cfg msg.ReliableConfig,
	total int, size uint64, pace, linger sim.Time) (*streamResult, error) {

	method := userdma.ExtShadow{}
	cluster, err := net.NewCluster(2, userdma.ConfigFor(method), net.Gigabit())
	if err != nil {
		return nil, err
	}
	cluster.Fabric.SetFaultPlane(fault.New(plan, seed))
	n0, n1 := cluster.Nodes[0], cluster.Nodes[1]
	res := &streamResult{}

	var tx *msg.RSender
	var rx *msg.RReceiver
	sender := n0.NewProcess("tx", func(c *proc.Context) error {
		buf := make([]byte, size)
		for i := 0; i < total; i++ {
			fmsg(i, buf)
			start := n0.Clock.Now()
			res.sendTimes = append(res.sendTimes, start)
			if err := tx.Send(c, buf); err != nil {
				return fmt.Errorf("message %d: %w", i, err)
			}
			for pace > 0 && n0.Clock.Now() < start+pace {
				c.Spin(2000)
			}
		}
		return tx.Flush(c)
	})
	recver := n1.NewProcess("rx", func(c *proc.Context) error {
		buf := make([]byte, size)
		want := make([]byte, size)
		for i := 0; i < total; i++ {
			n, err := rx.Recv(c, buf)
			if err != nil {
				return fmt.Errorf("message %d: %w", i, err)
			}
			res.recvTimes = append(res.recvTimes, n1.Clock.Now())
			fmsg(i, want)
			if n != int(size) || string(buf[:n]) != string(want) {
				return fmt.Errorf("message %d corrupted", i)
			}
			res.bytes += uint64(n)
		}
		return rx.Linger(c, linger)
	})

	h, err := method.Attach(n0, sender)
	if err != nil {
		return nil, err
	}
	tx, rx, err = msg.NewReliableChannel(n0, sender, h, n1, recver, 1, cfg)
	if err != nil {
		return nil, err
	}
	if err := cluster.RunRoundRobin(8, 1<<62); err != nil {
		return nil, err
	}
	if sender.Err() != nil {
		return nil, fmt.Errorf("sender: %w", sender.Err())
	}
	if recver.Err() != nil {
		return nil, fmt.Errorf("receiver: %w", recver.Err())
	}
	for i := range res.recvTimes {
		res.latency.Add(res.recvTimes[i] - res.sendTimes[i])
	}
	res.tx, res.rx, res.fabric = tx.Counters(), rx.Counters(), cluster.Fabric.Counters()
	return res, nil
}

// The fault studies' default sizes: cmd/faultsim's flag defaults, the
// sizes cmd/report runs the studies at, and what faultsweep and
// faultsearch run for a zero count.
const (
	FaultMsgs  = 24 // messages per faultsweep cell
	FaultSeeds = 4  // faultsearch: seeded fault plans
	FaultDepth = 4  // faultsearch: scheduling decisions per schedule
)

func faultMsgs(p Params) int {
	if p.Msgs > 0 {
		return p.Msgs
	}
	return FaultMsgs
}

func faultSweepCells(p Params) ([]Cell, error) {
	total := faultMsgs(p)
	var cells []Cell
	for di, drop := range FaultDrops() {
		for si, size := range FaultSizes() {
			drop, size := drop, size
			seed := uint64(1000 + di*len(FaultSizes()) + si)
			label := fmt.Sprintf("drop=%.2f/%dB", drop, size)
			cells = append(cells, Cell{Config: label, Size: size, Seed: seed, Run: func() (Obs, bool, error) {
				plan := fault.Plan{Default: fault.LinkFaults{Drop: drop}}
				linger := sim.Time(0)
				if drop > 0 {
					linger = 20 * sim.Millisecond
				}
				// RTO must clear the worst-case queueing delay of a full
				// 4-slot burst of the largest payload (~260µs), or the
				// control rows pay spurious retransmissions.
				cfg := msg.ReliableConfig{
					Config: msg.Config{Slots: 4, SlotPayload: int(size)},
					RTO:    500 * sim.Microsecond,
				}
				r, err := reliableStream(plan, seed, cfg, total, size, 0, linger)
				if err != nil {
					return nil, false, fmt.Errorf("%s: %w", label, err)
				}
				return Obs{r.faultPoint(label, drop, size, total)}, false, nil
			}})
		}
	}
	return cells, nil
}

func recoveryCells(p Params) ([]Cell, error) {
	total := faultMsgs(p)
	if p.Msgs <= 0 {
		total = 40
	}
	const outageFrom = 100 * sim.Microsecond
	var cells []Cell
	for i, outage := range RecoveryOutages() {
		outage := outage
		label := fmt.Sprintf("down=%v", outage)
		cells = append(cells, Cell{Config: label, Seed: uint64(i + 1), Run: func() (Obs, bool, error) {
			plan := fault.Plan{Links: map[fault.Link]fault.LinkFaults{
				{Src: 0, Dst: 1}: {Down: []fault.Window{{From: outageFrom, Until: outageFrom + outage}}},
			}}
			cfg := msg.ReliableConfig{Config: msg.Config{Slots: 4, SlotPayload: 64}}
			r, err := reliableStream(plan, uint64(i+1), cfg, total, 64, 30*sim.Microsecond, 0)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", label, err)
			}
			until := outageFrom + outage
			recover := sim.Time(0)
			for _, at := range r.recvTimes {
				if at >= until {
					recover = at - until
					break
				}
			}
			pt := RecoveryPoint{
				Label: label, Outage: outage,
				Recover:     recover,
				Complete:    r.recvTimes[len(r.recvTimes)-1],
				Retransmits: r.tx.Retransmits.Value(), Timeouts: r.tx.Timeouts.Value(),
			}
			return Obs{pt}, false, nil
		}})
	}
	return cells, nil
}

// faultSearchWorld builds one disposable loopback world for the
// bounded search: sender and receiver share ONE node (so a single
// proc.Runner owns every scheduling decision) and the channel runs over
// the node's own fabric port — kernel.MapRemote accepts node == self.
// The cluster is returned alongside the world so callers with their own
// driving loop (FaultReplay's traced straight-line run) can enable
// tracing and run it directly.
func faultSearchWorld(seed uint64, total int) (*net.Cluster, *proc.World, error) {
	method := userdma.ExtShadow{}
	cluster, err := net.NewCluster(1, userdma.ConfigFor(method), net.Gigabit())
	if err != nil {
		return nil, nil, err
	}
	cluster.Fabric.SetFaultPlane(fault.New(FaultPlanForSeed(seed), seed))
	n0 := cluster.Nodes[0]

	var tx *msg.RSender
	var rx *msg.RReceiver
	var got [][]byte
	sender := n0.NewProcess("tx", func(c *proc.Context) error {
		buf := make([]byte, 32)
		for i := 0; i < total; i++ {
			fmsg(i, buf)
			if err := tx.Send(c, buf); err != nil {
				return err
			}
		}
		return tx.Flush(c)
	})
	recver := n0.NewProcess("rx", func(c *proc.Context) error {
		buf := make([]byte, 32)
		for i := 0; i < total; i++ {
			n, err := rx.Recv(c, buf)
			if err != nil {
				return err
			}
			got = append(got, append([]byte(nil), buf[:n]...))
		}
		return rx.Linger(c, 2*sim.Millisecond)
	})
	h, err := method.Attach(n0, sender)
	if err != nil {
		return nil, nil, err
	}
	tx, rx, err = msg.NewReliableChannel(n0, sender, h, n0, recver, 0, msg.ReliableConfig{
		Config:        msg.Config{Slots: 2, SlotPayload: 32},
		RTO:           200 * sim.Microsecond,
		MaxRetries:    8,
		RecreditAfter: 500 * sim.Microsecond,
		GiveUp:        20 * sim.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	check := func() error {
		if err := sender.Err(); err != nil {
			return fmt.Errorf("sender: %w", err)
		}
		if err := recver.Err(); err != nil {
			return fmt.Errorf("receiver: %w", err)
		}
		if len(got) != total {
			return fmt.Errorf("delivered %d of %d messages", len(got), total)
		}
		want := make([]byte, 32)
		for i, g := range got {
			fmsg(i, want)
			if string(g) != string(want) {
				return fmt.Errorf("message %d out of order or duplicated", i)
			}
		}
		return nil
	}
	// Small-quantum finish: the endpoints poll each other, so the
	// default run-to-block policy would starve whichever process the
	// last explicit decision left off-CPU.
	return cluster, &proc.World{Runner: n0.Runner, Check: check, Finish: proc.NewRoundRobin(8)}, nil
}

// faultSearchFactory adapts faultSearchWorld to the explorer's factory
// shape (the cluster stays internal to the world's closures).
func faultSearchFactory(seed uint64, total int) proc.WorldFactory {
	return func() (*proc.World, error) {
		_, w, err := faultSearchWorld(seed, total)
		return w, err
	}
}

func faultSearchCells(p Params) ([]Cell, error) {
	seeds := p.Seeds
	if seeds <= 0 {
		seeds = FaultSeeds
	}
	depth := p.Slots
	if depth <= 0 {
		depth = FaultDepth
	}
	const total = 3
	cells := make([]Cell, seeds)
	for i := range cells {
		seed := uint64(i + 1)
		cells[i] = Cell{Seed: seed, Config: fmt.Sprintf("seed=%d", seed), Run: func() (Obs, bool, error) {
			res, err := proc.Explore(faultSearchFactory(seed, total), depth, 10_000)
			if err != nil {
				return nil, false, fmt.Errorf("seed %d: %w", seed, err)
			}
			pt := FaultSearchPoint{
				Label: fmt.Sprintf("seed=%d", seed), Seed: seed, Schedules: res.Schedules,
			}
			if res.Counterexample != nil {
				pt.Violation = fmt.Sprintf("schedule %v: %v (replay: seed=%d plan=%+v)",
					res.Counterexample, res.CounterexampleErr, seed, FaultPlanForSeed(seed).Default)
				// A violation is a protocol bug: stop the sweep at the
				// lowest-indexed seed, like the attack searches.
				return Obs{pt}, true, nil
			}
			return Obs{pt}, false, nil
		}}
	}
	return cells, nil
}

// --- renderers ---

func faultSweepText(r *Result, p Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reliable channel under loss — 2 nodes, Gigabit link, %d messages per cell\n\n", faultMsgs(p))
	tb := stats.NewTable("scenario", "p50", "p99", "mean", "goodput", "rexmit", "recredit", "dropped")
	for _, pt := range Collect[FaultPoint](r) {
		tb.AddRow(pt.Label, pt.P50, pt.P99, pt.Mean,
			fmt.Sprintf("%.1f MB/s", pt.GoodputMBps), pt.Retransmits, pt.Recredits, pt.Dropped)
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	b.WriteString("drop=0.00 rows are the control: a zero-fault plane is inert, so they match a bare fabric.\n")
	b.WriteString("All recovery traffic is user-level remote writes — zero kernel crossings at any drop rate.\n")
	return b.String()
}

func faultSweepMarkdown(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("\n## Fault sweep — reliable channel vs drop rate × size\n\n")
	b.WriteString("| scenario | p50 | p99 | mean | goodput MB/s | rexmit | recredit | dropped |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, pt := range Collect[FaultPoint](r) {
		fmt.Fprintf(&b, "| %s | %v | %v | %v | %.1f | %d | %d | %d |\n",
			pt.Label, pt.P50, pt.P99, pt.Mean, pt.GoodputMBps, pt.Retransmits, pt.Recredits, pt.Dropped)
	}
	return b.String()
}

func recoveryText(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("Link-down recovery — paced reliable stream across an outage window\n\n")
	tb := stats.NewTable("outage", "recover", "complete", "rexmit", "timeouts")
	for _, pt := range Collect[RecoveryPoint](r) {
		tb.AddRow(pt.Label, pt.Recover, pt.Complete, pt.Retransmits, pt.Timeouts)
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	b.WriteString("recover = link heals -> first delivery; bounded by the retransmit backoff, never a kernel.\n")
	return b.String()
}

func recoveryMarkdown(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("\n## Recovery — time to resume after a link-down window\n\n")
	b.WriteString("| outage | recover | complete | rexmit | timeouts |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, pt := range Collect[RecoveryPoint](r) {
		fmt.Fprintf(&b, "| %s | %v | %v | %d | %d |\n",
			pt.Label, pt.Recover, pt.Complete, pt.Retransmits, pt.Timeouts)
	}
	return b.String()
}

func faultSearchText(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("Bounded interleaving × fault-plan search — exactly-once, in-order delivery\n\n")
	total := 0
	for _, pt := range Collect[FaultSearchPoint](r) {
		total += pt.Schedules
		if pt.Violation != "" {
			fmt.Fprintf(&b, "  %s: VIOLATION after %d schedules — %s\n", pt.Label, pt.Schedules, pt.Violation)
		} else {
			fmt.Fprintf(&b, "  %s: %d schedules, no violation\n", pt.Label, pt.Schedules)
		}
	}
	if r.Stopped == nil {
		fmt.Fprintf(&b, "\n%d schedules model-checked; the reliable protocol delivered exactly-once, in order, in every one.\n", total)
	} else {
		b.WriteString("\nThe sweep stopped at the first violating seed (grid order) — replay it with the printed line.\n")
	}
	return b.String()
}

func faultSearchMarkdown(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("\n## Fault search — model-checked delivery guarantee\n\n")
	b.WriteString("| seed | schedules | verdict |\n|---|---|---|\n")
	for _, pt := range Collect[FaultSearchPoint](r) {
		verdict := "exactly-once, in order"
		if pt.Violation != "" {
			verdict = pt.Violation
		}
		fmt.Fprintf(&b, "| %d | %d | %s |\n", pt.Seed, pt.Schedules, verdict)
	}
	return b.String()
}
