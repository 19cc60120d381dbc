package uldma_test

// Full-stack integration soaks: many processes, mixed initiation
// methods, random preemption, canary pages — the whole machine under
// sustained legal load, with end-state invariants checked from outside
// the simulation.

import (
	"bytes"
	"fmt"
	"testing"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/dma/dmatest"
	"uldma/internal/msg"
	"uldma/internal/net"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// TestSoakMixedMethodsSingleNode runs four processes (extended-shadow
// contexts for the first hardware supply, kernel path beyond) each
// performing dozens of DMAs and atomics between their own pages under
// seeded random preemption. Invariants:
//
//   - every process finishes cleanly;
//   - every engine transfer stays within the union of legitimately
//     mapped pages (no stray physical traffic);
//   - canary pages owned by a bystander are bit-identical afterwards;
//   - each process's final payload arrives intact;
//   - per-process atomic counters are exact.
func TestSoakMixedMethodsSingleNode(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			soakSingleNode(t, seed)
		})
	}
}

func soakSingleNode(t *testing.T, seed uint64) {
	t.Helper()
	method := userdma.ExtShadow{}
	m := userdma.Machine(method)
	accepted := dmatest.Accepted(m.Engine)
	pageSize := m.Cfg.PageSize

	const nProcs = 4
	const opsPerProc = 25
	type worker struct {
		h         *userdma.Handle
		srcVA     vm.VAddr
		dstVA     vm.VAddr
		cellVA    vm.VAddr
		srcFrame  phys.Addr
		dstFrame  phys.Addr
		cellFrame phys.Addr
		pattern   byte
		adds      uint64
	}
	workers := make([]*worker, nProcs)
	legalFrames := map[phys.Addr]bool{}

	for i := 0; i < nProcs; i++ {
		w := &worker{
			srcVA:   vm.VAddr(0x100000),
			dstVA:   vm.VAddr(0x200000),
			cellVA:  vm.VAddr(0x300000),
			pattern: byte(0x30 + i),
		}
		workers[i] = w
		rng := sim.NewRand(seed*1000 + uint64(i))
		p := m.NewProcess(fmt.Sprintf("w%d", i), func(c *proc.Context) error {
			for op := 0; op < opsPerProc; op++ {
				switch rng.Intn(3) {
				case 0: // user-level DMA, random offset/size inside the pages
					off := vm.VAddr(rng.Intn(64) * 16)
					size := uint64(rng.Intn(96) + 8)
					st, err := w.h.DMA(c, w.srcVA+off, w.dstVA+off, size)
					if err != nil {
						return err
					}
					if st == dma.StatusFailure {
						return fmt.Errorf("op %d refused", op)
					}
				case 1: // user-level atomic
					if _, err := userdma.FetchAdd(c, w.cellVA, 1); err != nil {
						return err
					}
					w.adds++
				default: // kernel-path DMA for contrast
					st, err := c.Syscall(1 /* kernel.SysDMA */, uint64(w.srcVA), uint64(w.dstVA), 64)
					if err != nil {
						return err
					}
					if st == dma.StatusFailure {
						return fmt.Errorf("kernel op %d refused", op)
					}
				}
			}
			// Final, verifiable payload: whole source page to the
			// destination page, then wait for it from user level.
			st, err := w.h.DMA(c, w.srcVA, w.dstVA, pageSize)
			if err != nil {
				return err
			}
			if st == dma.StatusFailure {
				return fmt.Errorf("final DMA refused")
			}
			return w.h.Wait(c, 1_000_000)
		})
		h, err := method.Attach(m, p)
		if err != nil {
			t.Fatal(err)
		}
		w.h = h
		frames, err := m.SetupPages(p, w.srcVA, 1, vm.Read|vm.Write)
		if err != nil {
			t.Fatal(err)
		}
		w.srcFrame = frames[0]
		frames, err = m.SetupPages(p, w.dstVA, 1, vm.Read|vm.Write)
		if err != nil {
			t.Fatal(err)
		}
		w.dstFrame = frames[0]
		cellFrames, err := m.SetupPages(p, w.cellVA, 1, vm.Read|vm.Write)
		if err != nil {
			t.Fatal(err)
		}
		w.cellFrame = cellFrames[0]
		if err := userdma.SetupAtomics(m, p, w.cellVA); err != nil {
			t.Fatal(err)
		}
		legalFrames[w.srcFrame] = true
		legalFrames[w.dstFrame] = true
		legalFrames[w.cellFrame] = true
		m.Mem.Fill(w.srcFrame, int(pageSize), w.pattern)
	}

	// Bystander canaries: mapped, shadowed, never used.
	bystander := m.NewProcess("bystander", func(c *proc.Context) error { return nil })
	canary, err := m.Kernel.AllocPage(bystander.AddressSpace(), 0x100000, vm.Read|vm.Write)
	if err != nil {
		t.Fatal(err)
	}
	canaryImage := bytes.Repeat([]byte{0xCA, 0xFE}, int(pageSize)/2)
	if err := m.Mem.WriteBytes(canary, canaryImage); err != nil {
		t.Fatal(err)
	}

	if err := m.Run(proc.NewRandom(seed), 1<<62); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Runner.Processes() {
		if p.Err() != nil {
			t.Fatalf("%s: %v", p.Name(), p.Err())
		}
	}
	m.Settle()

	// Engine self-check: internal bookkeeping consistent after the run.
	if err := m.Engine.CheckInvariants(m.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	// Invariant: no transfer outside the legal page set.
	ps := phys.Addr(pageSize)
	for _, tr := range *accepted {
		if !legalFrames[tr.Src&^(ps-1)] || !legalFrames[tr.Dst&^(ps-1)] {
			t.Fatalf("stray transfer %v -> %v", tr.Src, tr.Dst)
		}
	}
	// Invariant: canaries untouched.
	got, err := m.Mem.ReadBytes(canary, int(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, canaryImage) {
		t.Fatal("canary page modified")
	}
	// Invariant: final payloads intact, atomics exact.
	for i, w := range workers {
		dst, err := m.Mem.ReadBytes(w.dstFrame, int(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range dst {
			if b != w.pattern {
				t.Fatalf("worker %d: destination corrupted (byte %#x, want %#x)", i, b, w.pattern)
			}
		}
		v, err := m.Mem.Read(w.cellFrame, phys.Size64)
		if err != nil {
			t.Fatal(err)
		}
		if v != w.adds {
			t.Fatalf("worker %d: counter %d, want %d", i, v, w.adds)
		}
	}
}

// TestSoakRepeatedPassingMultiprogrammed: three processes all use the
// 5-access repeated-passing protocol concurrently under random
// preemption. Attempts collide at the engine's single FSM and retry;
// in the end every process has moved its payload, and every transfer
// matches a legitimate (src, dst) pair.
func TestSoakRepeatedPassingMultiprogrammed(t *testing.T) {
	// NOTE on scheduling granularity: the engine's sequence FSM is a
	// shared resource, so concurrent repeated-passing users reset each
	// other's progress. Under instruction-level preemption that means
	// livelock; with realistic quanta (a sequence fits comfortably in
	// one) progress is guaranteed and interleaving still happens at
	// quantum boundaries mid-retry. The sweep varies the quantum.
	for seed := uint64(1); seed <= 4; seed++ {
		method := userdma.RepeatedPassing{Len: 5, Barriers: true, MaxRetries: 512}
		m := userdma.Machine(method)
		accepted := dmatest.Accepted(m.Engine)
		pageSize := m.Cfg.PageSize
		type job struct {
			h          *userdma.Handle
			srcF, dstF phys.Addr
			pattern    byte
			moved      int
		}
		const nProcs, dmasEach = 3, 6
		jobs := make([]*job, nProcs)
		legal := map[[2]phys.Addr]bool{}
		for i := 0; i < nProcs; i++ {
			j := &job{pattern: byte(0x50 + i)}
			jobs[i] = j
			p := m.NewProcess(fmt.Sprintf("rep%d", i), func(c *proc.Context) error {
				for k := 0; k < dmasEach; k++ {
					st, err := j.h.DMA(c, 0x100000, 0x200000, 128)
					if err != nil {
						return fmt.Errorf("dma %d: %w", k, err)
					}
					if st == dma.StatusFailure {
						return fmt.Errorf("dma %d refused", k)
					}
					j.moved++
				}
				return nil
			})
			h, err := method.Attach(m, p)
			if err != nil {
				t.Fatal(err)
			}
			j.h = h
			frames, err := m.SetupPages(p, 0x100000, 1, vm.Read|vm.Write)
			if err != nil {
				t.Fatal(err)
			}
			j.srcF = frames[0]
			frames, err = m.SetupPages(p, 0x200000, 1, vm.Read|vm.Write)
			if err != nil {
				t.Fatal(err)
			}
			j.dstF = frames[0]
			legal[[2]phys.Addr{j.srcF, j.dstF}] = true
			m.Mem.Fill(j.srcF, 128, j.pattern)
		}
		if err := m.Run(proc.NewRoundRobin(8+int(seed)), 1<<62); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range m.Runner.Processes() {
			if p.Err() != nil {
				t.Fatalf("seed %d: %s: %v", seed, p.Name(), p.Err())
			}
		}
		m.Settle()
		if err := m.Engine.CheckInvariants(m.Clock.Now()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ps := phys.Addr(pageSize)
		for _, tr := range *accepted {
			if !legal[[2]phys.Addr{tr.Src &^ (ps - 1), tr.Dst &^ (ps - 1)}] {
				t.Fatalf("seed %d: misdirected transfer %v->%v", seed, tr.Src, tr.Dst)
			}
		}
		for i, j := range jobs {
			b, _ := m.Mem.Read(j.dstF, phys.Size8)
			if byte(b) != j.pattern {
				t.Fatalf("seed %d: proc %d payload corrupted", seed, i)
			}
		}
	}
}

// TestDeterminism: the same seeded scenario replays bit-for-bit — final
// clock, transfer log, and statistics all identical. This property is
// what makes every experiment in the repository reproducible.
func TestDeterminism(t *testing.T) {
	type fingerprint struct {
		clock     sim.Time
		transfers string
		started   uint64
		switches  uint64
	}
	run := func() fingerprint {
		method := userdma.KeyBased{}
		m := userdma.Machine(method)
		accepted := dmatest.Accepted(m.Engine)
		type job struct{ h *userdma.Handle }
		for i := 0; i < 3; i++ {
			j := &job{}
			p := m.NewProcess(fmt.Sprintf("p%d", i), func(c *proc.Context) error {
				for k := 0; k < 8; k++ {
					if _, err := j.h.DMA(c, 0x100000, 0x200000, uint64(16+k*8)); err != nil {
						return err
					}
				}
				return nil
			})
			h, err := method.Attach(m, p)
			if err != nil {
				t.Fatal(err)
			}
			j.h = h
			if _, err := m.SetupPages(p, 0x100000, 1, vm.Read|vm.Write); err != nil {
				t.Fatal(err)
			}
			if _, err := m.SetupPages(p, 0x200000, 1, vm.Read|vm.Write); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Run(proc.NewRandom(0xfeed), 1<<62); err != nil {
			t.Fatal(err)
		}
		m.Settle()
		var log string
		for _, tr := range *accepted {
			log += fmt.Sprintf("%v>%v#%d@%v;", tr.Src, tr.Dst, tr.Size, tr.Start)
		}
		return fingerprint{
			clock:     m.Clock.Now(),
			transfers: log,
			started:   m.Engine.Counters().Started.Value(),
			switches:  m.Runner.Counters().Switches.Value(),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
}

// TestSoakClusterCombined drives msg channels and remote atomics at the
// same time on a 3-node cluster: node 0 streams messages to node 1
// while node 2 and node 1 bump a shared counter in node 1's memory.
func TestSoakClusterCombined(t *testing.T) {
	method := userdma.ExtShadow{}
	cluster, err := net.NewCluster(3, userdma.ConfigFor(method), net.Gigabit())
	if err != nil {
		t.Fatal(err)
	}
	n0, n1, n2 := cluster.Nodes[0], cluster.Nodes[1], cluster.Nodes[2]

	const msgs = 12
	const addsPerProc = 20
	const cellOff = phys.Addr(0x300000)
	const cellVA = vm.VAddr(0x50000)

	var tx *msg.Sender
	var rx *msg.Receiver
	sender := n0.NewProcess("tx", func(c *proc.Context) error {
		for i := 0; i < msgs; i++ {
			if err := tx.Send(c, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
				return err
			}
		}
		return nil
	})
	var received int
	receiver := n1.NewProcess("rx", func(c *proc.Context) error {
		buf := make([]byte, 64)
		for i := 0; i < msgs; i++ {
			n, err := rx.Recv(c, buf)
			if err != nil {
				return err
			}
			if string(buf[:n]) != fmt.Sprintf("payload-%02d", i) {
				return fmt.Errorf("message %d corrupted: %q", i, buf[:n])
			}
			received++
		}
		return nil
	})
	// Local adder on node 1 and remote adder on node 2.
	adderLocal := n1.NewProcess("adder-local", func(c *proc.Context) error {
		for i := 0; i < addsPerProc; i++ {
			if _, err := userdma.FetchAdd(c, cellVA, 1); err != nil {
				return err
			}
		}
		return nil
	})
	adderRemote := n2.NewProcess("adder-remote", func(c *proc.Context) error {
		for i := 0; i < addsPerProc; i++ {
			if _, err := userdma.FetchAdd(c, cellVA, 1); err != nil {
				return err
			}
		}
		return nil
	})

	h, err := method.Attach(n0, sender)
	if err != nil {
		t.Fatal(err)
	}
	if tx, rx, err = msg.NewChannel(n0, sender, h, n1, receiver, 1, msg.Config{Slots: 4, SlotPayload: 64}); err != nil {
		t.Fatal(err)
	}
	if err := n1.Kernel.MapFrame(adderLocal.AddressSpace(), cellVA, cellOff, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if err := userdma.SetupAtomics(n1, adderLocal, cellVA); err != nil {
		t.Fatal(err)
	}
	if err := n2.Kernel.MapRemote(adderRemote, cellVA, 1, cellOff); err != nil {
		t.Fatal(err)
	}
	if err := userdma.SetupAtomics(n2, adderRemote, cellVA); err != nil {
		t.Fatal(err)
	}

	if err := cluster.RunRoundRobin(4, 1<<62); err != nil {
		t.Fatal(err)
	}
	for _, m := range cluster.Nodes {
		for _, p := range m.Runner.Processes() {
			if p.Err() != nil {
				t.Fatalf("node %d %s: %v", m.NodeID, p.Name(), p.Err())
			}
		}
	}
	cluster.Settle()

	if received != msgs {
		t.Fatalf("received %d/%d messages", received, msgs)
	}
	v, err := n1.Mem.Read(cellOff, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2*addsPerProc {
		t.Fatalf("shared counter = %d, want %d", v, 2*addsPerProc)
	}
	// Nothing in steady state crossed a kernel.
	for _, m := range cluster.Nodes {
		if m.Kernel.Counters().Syscalls != 0 {
			t.Fatalf("node %d made %d syscalls", m.NodeID, m.Kernel.Counters().Syscalls)
		}
	}
}
