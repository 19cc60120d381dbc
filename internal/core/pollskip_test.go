package userdma

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// worldState is everything a poll skip must leave exactly as the full
// poll loop does: the whole registry, the clock, and the CPU TLB with
// its LRU stamps.
type worldState struct {
	render string
	now    int64
	tlb    string
}

func stateOf(m *machine.Machine) worldState {
	return worldState{render: fmt.Sprint(m.Obs.Snapshot()), now: int64(m.Clock.Now()), tlb: tlbStamps(m)}
}

// withSkip runs f with the fast-forward switch set to on, restoring it
// afterwards, and reports how many poll skips engaged during f.
func withSkip(on bool, f func()) int64 {
	defer SetFastForward(SetFastForward(on))
	before := pollSkips.Load()
	f()
	return pollSkips.Load() - before
}

// maxRealPollsPerTransfer bounds the polls the stall and bounce cells
// of TestPollSkipEquivalence run for real per transfer. Every real
// poll arms the skip for the next, so a stretch costs the poll that
// ends the last one plus one bracketed poll; spending a separate
// arming poll per stretch, as a rule that waits for two equal advances
// does, would run 14.25.
const maxRealPollsPerTransfer = 10.5

// TestPollSkipEquivalence: PagingBench under every recovery policy and
// MeasureIOTLB across the IOTLB knee produce the identical result
// struct (fingerprint included), registry, clock and TLB stamps with
// the poll skip on and off, and the skip engages in every cell. The
// stall and bounce cells run at most maxRealPollsPerTransfer real
// polls per transfer.
func TestPollSkipEquivalence(t *testing.T) {
	const transfers = 48
	type cell struct {
		name      string
		run       func() (any, *machine.Machine, error)
		realBound float64 // real polls per transfer with the skip on; 0: unchecked
	}
	var cells []cell
	for _, pol := range []dma.RecoveryPolicy{dma.RecoverStall, dma.RecoverBounce, dma.RecoverPin} {
		pol := pol
		var bound float64
		if pol != dma.RecoverPin {
			bound = maxRealPollsPerTransfer
		}
		cells = append(cells, cell{"paging/" + pol.String(), func() (any, *machine.Machine, error) {
			return pagingBench(pol, 16, 4, transfers)
		}, bound})
	}
	for _, pages := range []int{4, 8, 16} {
		pages := pages
		cells = append(cells, cell{fmt.Sprintf("iotlb/%d", pages), func() (any, *machine.Machine, error) {
			return measureIOTLB(pages, 8, transfers)
		}, 0})
	}
	for _, c := range cells {
		var res [2]any
		var st [2]worldState
		var skips [2]int64
		var real int64
		for i, on := range []bool{false, true} {
			before := realPolls.Load()
			skips[i] = withSkip(on, func() {
				r, m, err := c.run()
				if err != nil {
					t.Fatalf("%s (skip %v): %v", c.name, on, err)
				}
				res[i], st[i] = r, stateOf(m)
			})
			real = realPolls.Load() - before
		}
		if skips[0] != 0 || skips[1] == 0 {
			t.Errorf("%s: %d skips with the switch off, %d with it on; want none, then some", c.name, skips[0], skips[1])
		}
		if perTransfer := float64(real) / transfers; c.realBound > 0 && perTransfer > c.realBound {
			t.Errorf("%s: %.2f real polls per transfer with the skip on; want at most %.2f", c.name, perTransfer, c.realBound)
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s: result differs with the skip on:\n off %+v\n on  %+v", c.name, res[0], res[1])
		}
		if st[0] != st[1] {
			t.Errorf("%s: world differs with the skip on:\n off %+v\n on  %+v", c.name, st[0], st[1])
		}
	}
}

// pollRun is the outcome of one pollWorld run.
type pollRun struct {
	run, wait error
	polls     uint64 // guest instructions, two per poll
	state     worldState
	skips     int64
}

// pollWorld streams page-sized transfers from two source pages under a
// one-page pager budget, so every transfer parks on a 100 µs page-in
// while its guest polls with Wait(maxPolls). A spinner process, when
// asked for, stays live beside the poller. Run's slot budget is
// maxSlots.
func pollWorld(t *testing.T, skip bool, transfers, maxPolls int, maxSlots uint64, spinner bool) pollRun {
	t.Helper()
	var out pollRun
	out.skips = withSkip(skip, func() {
		method := ExtShadow{}
		cfg := VAConfigFor(method, 0)
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Kernel.EnablePager(2, pagingPageIn); err != nil {
			t.Fatal(err)
		}
		const srcBase, dstBase = vm.VAddr(0x100000), vm.VAddr(0x80000)
		ps := vm.VAddr(cfg.PageSize)
		var h *Handle
		p := m.NewProcess("poller", func(c *proc.Context) error {
			for i := 0; i < transfers; i++ {
				if _, err := h.DMA(c, srcBase+vm.VAddr(i%2)*ps, dstBase, uint64(ps)); err != nil {
					return err
				}
				if out.wait = h.Wait(c, maxPolls); out.wait != nil {
					return out.wait
				}
			}
			return nil
		})
		if spinner {
			m.NewProcess("spinner", func(c *proc.Context) error {
				for i := 0; i < 100; i++ {
					c.Spin(100)
				}
				return nil
			})
		}
		if h, err = method.Attach(m, p); err != nil {
			t.Fatal(err)
		}
		if _, err := SetupVAPages(m, p, h.Context(), srcBase, 2, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		if _, err := SetupVAPages(m, p, h.Context(), dstBase, 1, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		out.run = m.Run(proc.NewRoundRobin(1<<20), maxSlots)
		m.Runner.Shutdown()
		out.polls = p.Instructions()
		out.state = stateOf(m)
	})
	return out
}

// TestPollSkipMaxPollsParity: a Wait whose maxPolls runs out inside a
// quiet stretch fails with the same error, at the same instant and
// with the same registry and TLB, with the skip on and off.
func TestPollSkipMaxPollsParity(t *testing.T) {
	off := pollWorld(t, false, 1, 30, 1<<32, false)
	on := pollWorld(t, true, 1, 30, 1<<32, false)
	if off.wait == nil || on.wait == nil || off.wait.Error() != on.wait.Error() {
		t.Fatalf("Wait errors: skip off %v, on %v; want the same exhausted-polls error", off.wait, on.wait)
	}
	if on.skips == 0 {
		t.Fatal("the poll skip never engaged before maxPolls ran out")
	}
	if off.polls != on.polls || off.state != on.state {
		t.Fatalf("world differs with the skip on:\n off %d instrs %+v\n on  %d instrs %+v", off.polls, off.state, on.polls, on.state)
	}
}

// TestPollSkipSlotBudgetParity: a Run whose slot budget runs out in
// the middle of a Wait stops with the same ErrSlotBudget, at the same
// instant and with the same registry and TLB, with the skip on and off.
func TestPollSkipSlotBudgetParity(t *testing.T) {
	off := pollWorld(t, false, 1, 1<<20, 60, false)
	on := pollWorld(t, true, 1, 1<<20, 60, false)
	if !errors.Is(off.run, proc.ErrSlotBudget) || !errors.Is(on.run, proc.ErrSlotBudget) || off.run.Error() != on.run.Error() {
		t.Fatalf("Run errors: skip off %v, on %v; want the same ErrSlotBudget", off.run, on.run)
	}
	if on.skips == 0 {
		t.Fatal("the poll skip never engaged before the slot budget ran out")
	}
	if off.polls != on.polls || off.state != on.state {
		t.Fatalf("world differs with the skip on:\n off %d instrs %+v\n on  %d instrs %+v", off.polls, off.state, on.polls, on.state)
	}
}

// TestPollSkipRefusesLivePeer: with a second process live beside the
// poller, the skip never engages, and the run is the same either way.
func TestPollSkipRefusesLivePeer(t *testing.T) {
	off := pollWorld(t, false, 3, 1<<20, 1<<32, true)
	on := pollWorld(t, true, 3, 1<<20, 1<<32, true)
	if off.run != nil || on.run != nil || off.wait != nil || on.wait != nil {
		t.Fatalf("runs failed: off %v/%v, on %v/%v", off.run, off.wait, on.run, on.wait)
	}
	if on.skips != 0 {
		t.Fatalf("the poll skip engaged %d times with a second process live", on.skips)
	}
	if off.state != on.state {
		t.Fatalf("world differs with the switch on:\n off %+v\n on  %+v", off.state, on.state)
	}
}

// TestPollSkipRefusesTrappingPoll: a kernel-level Wait polls through a
// syscall each time; the held state counts kernel traps, so the skip
// never engages, and the run is the same either way.
func TestPollSkipRefusesTrappingPoll(t *testing.T) {
	var st [2]worldState
	var skips [2]int64
	for i, on := range []bool{false, true} {
		skips[i] = withSkip(on, func() {
			method := KernelLevel{}
			m := Machine(method)
			const src, dst = vm.VAddr(0x10000), vm.VAddr(0x20000)
			var h *Handle
			p := m.NewProcess("kwait", func(c *proc.Context) error {
				if _, err := h.DMA(c, src, dst, m.Cfg.PageSize); err != nil {
					return err
				}
				return h.Wait(c, 1<<20)
			})
			var err error
			if h, err = method.Attach(m, p); err != nil {
				t.Fatal(err)
			}
			for _, base := range []vm.VAddr{src, dst} {
				if _, err := m.SetupPages(p, base, 1, vm.Read|vm.Write); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Run(proc.NewRoundRobin(1<<20), 1<<32); err != nil || p.Err() != nil {
				t.Fatalf("run: %v, guest: %v", err, p.Err())
			}
			st[i] = stateOf(m)
		})
	}
	if skips[1] != 0 {
		t.Fatalf("the poll skip engaged %d times on a syscall poll", skips[1])
	}
	if st[0] != st[1] {
		t.Fatalf("world differs with the switch on:\n off %+v\n on  %+v", st[0], st[1])
	}
}

// TestPollSkipZeroAllocs: a warm Wait that skips allocates nothing —
// the detector's state lives on Wait's stack. The transfers go through
// the VA window, whose start and walk allocate nothing either, so the
// whole DMA-and-Wait round is measured.
func TestPollSkipZeroAllocs(t *testing.T) {
	defer SetFastForward(SetFastForward(true))
	method := ExtShadow{}
	m, err := machine.New(VAConfigFor(method, 0))
	if err != nil {
		t.Fatal(err)
	}
	const src, dst = vm.VAddr(0x10000), vm.VAddr(0x20000)
	size := m.Cfg.PageSize
	var h *Handle
	var allocs float64
	var skips int64
	p := m.NewProcess("waiter", func(c *proc.Context) error {
		transfer := func() {
			if _, err := h.DMA(c, src, dst, size); err != nil {
				t.Error(err)
			}
			if err := h.Wait(c, 1<<20); err != nil {
				t.Error(err)
			}
		}
		transfer()
		before := pollSkips.Load()
		allocs = testing.AllocsPerRun(20, transfer)
		skips = pollSkips.Load() - before
		return nil
	})
	if h, err = method.Attach(m, p); err != nil {
		t.Fatal(err)
	}
	for _, base := range []vm.VAddr{src, dst} {
		if _, err := SetupVAPages(m, p, h.Context(), base, 1, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<32); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if skips < 21 {
		t.Fatalf("%d skips over 21 waits; want at least one per wait", skips)
	}
	if allocs != 0 {
		t.Fatalf("a skipping Wait allocates %.1f times per transfer, want 0", allocs)
	}
}

// TestPollSkipRefusesTLBFill: when every poll misses in the CPU TLB
// (the guest's page table changes between polls, so each status load
// walks and refills), the armed poll moves the TLB's version and the
// skip refuses; the same polls without the page-table change skip.
func TestPollSkipRefusesTLBFill(t *testing.T) {
	defer SetFastForward(SetFastForward(true))
	for _, fill := range []bool{false, true} {
		method := ExtShadow{}
		m, err := machine.New(VAConfigFor(method, 0))
		if err != nil {
			t.Fatal(err)
		}
		const src, dst, spare = vm.VAddr(0x10000), vm.VAddr(0x20000), vm.VAddr(0x900000)
		var h *Handle
		var armed, skipped int
		p := m.NewProcess("poller", func(c *proc.Context) error {
			if _, err := h.DMA(c, src, dst, m.Cfg.PageSize); err != nil {
				return err
			}
			s := newPollSkip(m)
			for i := 0; i < 12 && skipped == 0; i++ {
				if fill {
					if err := c.Process().AddressSpace().Map(spare, 0, vm.Read); err != nil {
						return err
					}
				}
				if rem, err := h.Poll(c); err != nil || rem == 0 || rem == StatusFailure {
					return fmt.Errorf("poll %d: status %d, %v; want the transfer still running", i, rem, err)
				}
				c.Spin(200)
				if s.armed {
					armed++
				}
				if s.after(m, c, 1<<20) > 0 {
					skipped++
				}
			}
			return h.Wait(c, 1<<20)
		})
		if h, err = method.Attach(m, p); err != nil {
			t.Fatal(err)
		}
		for _, base := range []vm.VAddr{src, dst} {
			if _, err := SetupVAPages(m, p, h.Context(), base, 1, vm.Read|vm.Write); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Run(proc.NewRoundRobin(1<<20), 1<<32); err != nil || p.Err() != nil {
			t.Fatalf("fill %v: run %v, guest %v", fill, err, p.Err())
		}
		switch {
		case fill && (armed == 0 || skipped != 0):
			t.Fatalf("with a TLB fill per poll: %d polls ran armed and %d skipped; want some armed and none skipped", armed, skipped)
		case !fill && skipped == 0:
			t.Fatal("without the fills the skip never engaged, so the refusal shows nothing")
		}
	}
}

// BenchmarkWaitPaging times one PagingBench stall cell at the size the
// va_paging benchmark runs (32 pages over an 8-page budget, 1024
// transfers), where nearly all host time is Handle.Wait's poll loop,
// and reports it per transfer with the real and skipped polls and the
// quiet stretches skipped.
func BenchmarkWaitPaging(b *testing.B) {
	defer SetFastForward(SetFastForward(true))
	const transfers = 1024
	b.ReportAllocs()
	real, skipped, skips := realPolls.Load(), skippedPolls.Load(), pollSkips.Load()
	for i := 0; i < b.N; i++ {
		if _, err := PagingBench(dma.RecoverStall, 32, 8, transfers); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(b.N * transfers)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/transfer")
	b.ReportMetric(float64(realPolls.Load()-real)/n, "real_polls/transfer")
	b.ReportMetric(float64(skippedPolls.Load()-skipped)/n, "skipped_polls/transfer")
	b.ReportMetric(float64(pollSkips.Load()-skips)/n, "stretches/transfer")
}
