package userdma

import (
	"bytes"
	"errors"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/dma/dmatest"
	"uldma/internal/isa"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

const (
	srcVA = vm.VAddr(0x10000)
	dstVA = vm.VAddr(0x20000)
)

// world is the standard one-process fixture: a machine wired for the
// method, a user process with two shadow-mapped pages, and the handle.
type world struct {
	m        *machine.Machine
	p        *proc.Process
	h        *Handle
	srcFrame phys.Addr
	dstFrame phys.Addr
	body     proc.Body
}

func newWorld(t *testing.T, method Method) *world {
	t.Helper()
	w := &world{m: Machine(method)}
	w.p = w.m.NewProcess("user", func(c *proc.Context) error { return w.body(c) })
	h, err := method.Attach(w.m, w.p) // before SetupPages: ctx id in mappings
	if err != nil {
		t.Fatal(err)
	}
	w.h = h
	frames, err := w.m.SetupPages(w.p, srcVA, 1, vm.Read|vm.Write)
	if err != nil {
		t.Fatal(err)
	}
	w.srcFrame = frames[0]
	frames, err = w.m.SetupPages(w.p, dstVA, 1, vm.Read|vm.Write)
	if err != nil {
		t.Fatal(err)
	}
	w.dstFrame = frames[0]
	return w
}

func (w *world) run(t *testing.T, body proc.Body) {
	t.Helper()
	w.body = body
	if err := w.m.Run(proc.NewRoundRobin(8), 1_000_000); err != nil {
		t.Fatal(err)
	}
	if w.p.Err() != nil {
		t.Fatalf("guest error: %v", w.p.Err())
	}
}

func TestEveryMethodMovesData(t *testing.T) {
	for _, method := range AllMethods() {
		method := method
		t.Run(method.Name(), func(t *testing.T) {
			w := newWorld(t, method)
			if s1, ok := method.(SHRIMP1); ok {
				// Mapped-out mode: fix the destination at setup time.
				if err := s1.MapOutPage(w.m, w.p, srcVA, w.dstFrame); err != nil {
					t.Fatal(err)
				}
			}
			payload := bytes.Repeat([]byte{0xd5}, 128)
			if err := w.m.Mem.WriteBytes(w.srcFrame, payload); err != nil {
				t.Fatal(err)
			}
			var status uint64
			w.run(t, func(c *proc.Context) error {
				st, err := w.h.DMA(c, srcVA, dstVA, 128)
				status = st
				return err
			})
			if status == dma.StatusFailure {
				t.Fatalf("initiation failed (status %#x)", status)
			}
			w.m.Settle()
			got, err := w.m.Mem.ReadBytes(w.dstFrame, 128)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("destination = %v..., want 0xd5 repeated", got[:8])
			}
			if w.m.Engine.Counters().Started != 1 {
				t.Fatalf("engine started %d transfers", w.m.Engine.Counters().Started)
			}
		})
	}
}

// TestTable1Timing asserts the calibrated model lands on the paper's
// Table 1 (±10%): kernel 18.6 µs, ext-shadow 1.1 µs, repeated 2.6 µs,
// key-based 2.3 µs.
func TestTable1Timing(t *testing.T) {
	var results []InitiationResult
	for _, method := range Methods() {
		r, err := MeasureMethod(method, ConfigFor(method), 200)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if len(results) != 4 {
		t.Fatalf("Table 1 has %d rows", len(results))
	}
	for _, r := range results {
		target := r.PaperMean
		if target == 0 {
			t.Fatalf("%s: no paper reference", r.Method)
		}
		lo := target - target/10
		hi := target + target/10
		if r.Mean < lo || r.Mean > hi {
			t.Errorf("%s: mean initiation = %v, want %v ±10%%", r.Method, r.Mean, target)
		}
		if r.Min > r.Mean || r.Max < r.Mean || r.Iterations != 200 {
			t.Errorf("%s: inconsistent summary %+v", r.Method, r)
		}
	}
	// Ordering claims: all user-level methods beat the kernel by about
	// an order of magnitude, and extended shadow is the fastest.
	byName := map[string]sim.Time{}
	for _, r := range results {
		byName[r.Method] = r.Mean
	}
	kernelMean := byName["Kernel-level DMA"]
	for name, mean := range byName {
		if name == "Kernel-level DMA" {
			continue
		}
		if kernelMean < 6*mean {
			t.Errorf("%s: only %.1fx faster than kernel DMA", name,
				float64(kernelMean)/float64(mean))
		}
		if byName["Ext. Shadow Addressing"] > mean {
			t.Errorf("extended shadow (%v) slower than %s (%v)",
				byName["Ext. Shadow Addressing"], name, mean)
		}
	}
}

// opCount returns how many of p's instructions have opcode op.
func opCount(p isa.Program, op isa.Op) int {
	n := 0
	for _, i := range p {
		if i.Op == op {
			n++
		}
	}
	return n
}

// TestInstructionCounts verifies the paper's §4 claim: user-level DMA
// in 2-5 instructions issued from user level (experiment X2).
func TestInstructionCounts(t *testing.T) {
	cases := []struct {
		method      Method
		busAccesses int
		loads       int
		stores      int
	}{
		{ExtShadow{}, 2, 1, 1},
		{KeyBased{}, 4, 1, 3},
		{RepeatedPassing{Len: 5, Barriers: true}, 5, 3, 2},
		{RepeatedPassing{Len: 4, Barriers: true}, 4, 2, 2},
		{RepeatedPassing{Len: 3, Barriers: true}, 3, 2, 1},
		{SHRIMP2{}, 2, 1, 1},
		{FLASH{}, 2, 1, 1},
		{SHRIMP1{}, 1, 0, 0}, // one compare-and-exchange
	}
	for _, c := range cases {
		w := newWorld(t, c.method)
		prog, ok := w.h.Program(srcVA, dstVA, 64)
		if !ok {
			t.Fatalf("%s: no program", c.method.Name())
		}
		if got := prog.BusAccesses(); got != c.busAccesses {
			t.Errorf("%s: %d bus accesses, want %d", c.method.Name(), got, c.busAccesses)
		}
		if got := opCount(prog, isa.OpLoad); got != c.loads {
			t.Errorf("%s: %d loads, want %d", c.method.Name(), got, c.loads)
		}
		if got := opCount(prog, isa.OpStore); got != c.stores {
			t.Errorf("%s: %d stores, want %d", c.method.Name(), got, c.stores)
		}
		if d := prog.Disassemble(); d == "" {
			t.Errorf("%s: empty disassembly", c.method.Name())
		}
		w.body = func(c *proc.Context) error { return nil }
		w.m.Run(proc.NewRoundRobin(1), 100)
	}
	// Call-based methods expose no user-level program.
	for _, m := range []Method{KernelLevel{}, PALCode{}} {
		w := newWorld(t, m)
		if _, ok := w.h.Program(srcVA, dstVA, 64); ok {
			t.Errorf("%s: unexpectedly has a user-level program", m.Name())
		}
		w.body = func(c *proc.Context) error { return nil }
		w.m.Run(proc.NewRoundRobin(1), 100)
	}
}

func TestPollAndWait(t *testing.T) {
	for _, method := range []Method{KeyBased{}, ExtShadow{}} {
		method := method
		t.Run(method.Name(), func(t *testing.T) {
			w := newWorld(t, method)
			w.m.Mem.Fill(w.srcFrame, 4096, 0x3e)
			w.run(t, func(c *proc.Context) error {
				st, err := w.h.DMA(c, srcVA, dstVA, 4096)
				if err != nil {
					return err
				}
				if st == dma.StatusFailure {
					t.Error("initiation failed")
					return nil
				}
				// 4 KiB at 50 MB/s ≈ 82 µs: first poll sees it running.
				rem, err := w.h.Poll(c)
				if err != nil {
					return err
				}
				if rem == 0 || rem == dma.StatusFailure {
					t.Errorf("first poll = %#x, want in-flight", rem)
				}
				return w.h.Wait(c, 10_000)
			})
			got, _ := w.m.Mem.ReadBytes(w.dstFrame, 4096)
			for _, b := range got {
				if b != 0x3e {
					t.Fatal("data incomplete after Wait")
				}
			}
		})
	}
	// Paired-mode methods cannot poll from user level.
	w := newWorld(t, SHRIMP2{})
	w.run(t, func(c *proc.Context) error {
		if _, err := w.h.Poll(c); !errors.Is(err, ErrNoPoll) {
			t.Errorf("Poll on paired method: %v", err)
		}
		return nil
	})
}

func TestContextExhaustionFallsBackToKernel(t *testing.T) {
	// §3.2: 1-2 context bits → 2-4 contexts; processes beyond that
	// "will have to go through the kernel".
	m := Machine(ExtShadow{})
	nCtx := m.Engine.NumContexts()
	for i := 0; i < nCtx; i++ {
		p := m.NewProcess("user", func(c *proc.Context) error { return nil })
		if _, err := (ExtShadow{}).Attach(m, p); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
	}
	extra := m.NewProcess("extra", func(c *proc.Context) error { return nil })
	if _, err := (ExtShadow{}).Attach(m, extra); err == nil {
		t.Fatal("attach beyond context supply succeeded")
	}
	// The kernel path still works for the overflow process.
	if _, err := (KernelLevel{}).Attach(m, extra); err != nil {
		t.Fatal(err)
	}
	m.Run(proc.NewRoundRobin(1), 1000)
}

func TestOverview(t *testing.T) {
	infos, err := Overview()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(AllMethods()) {
		t.Fatalf("rows = %d, want %d", len(infos), len(AllMethods()))
	}
	byName := map[string]MethodInfo{}
	for _, i := range infos {
		byName[i.Name] = i
	}
	// The paper's headline: user-level methods need 1-5 accesses.
	for name, accesses := range map[string]int{
		"Ext. Shadow Addressing":         2,
		"Key-based DMA":                  4,
		"Rep. Passing of Arguments":      5,
		"SHRIMP solution 1 (mapped-out)": 1,
	} {
		if got := byName[name].UserAccesses; got != accesses {
			t.Errorf("%s: %d accesses, want %d", name, got, accesses)
		}
		if byName[name].KernelMod {
			t.Errorf("%s flagged as kernel mod", name)
		}
	}
	if !byName["FLASH (PID tracking)"].KernelMod {
		t.Error("FLASH not flagged as kernel mod")
	}
	if byName["Kernel-level DMA"].Instructions != "syscall" {
		t.Errorf("kernel instructions = %q", byName["Kernel-level DMA"].Instructions)
	}
	if byName["PAL Code"].Instructions != "call_pal" {
		t.Errorf("PAL instructions = %q", byName["PAL Code"].Instructions)
	}
	if !byName["Ext. Shadow Addressing"].Polls || byName["PAL Code"].Polls {
		t.Error("polling capability wrong")
	}
}

func TestMethodMetadata(t *testing.T) {
	mods := map[string]bool{}
	for _, m := range AllMethods() {
		mods[m.Name()] = m.RequiresKernelMod()
		if m.Name() == "" {
			t.Error("unnamed method")
		}
	}
	// The paper's dividing line: its own methods need no kernel mod.
	for _, name := range []string{
		"Kernel-level DMA", "Ext. Shadow Addressing",
		"Rep. Passing of Arguments", "Key-based DMA",
		"PAL Code", "SHRIMP solution 1 (mapped-out)",
	} {
		if mod, ok := mods[name]; !ok || mod {
			t.Errorf("%s: RequiresKernelMod = %v, want declared false", name, mod)
		}
	}
	for _, name := range []string{"SHRIMP solution 2 (kernel-mod)", "FLASH (PID tracking)"} {
		if mod, ok := mods[name]; !ok || !mod {
			t.Errorf("%s: RequiresKernelMod = %v, want true", name, mod)
		}
	}
	if (SHRIMP2{}).Name() == (SHRIMP2{WithKernelMod: true}).Name() {
		t.Error("SHRIMP2 variants need distinct names")
	}
	if (RepeatedPassing{Len: 3}).Name() == (RepeatedPassing{Len: 5}).Name() {
		t.Error("repeated-passing variants need distinct names")
	}
}

// TestPairedRaceUnsafeVsKernelMod is the §2.5 story at full-system
// scale: two processes under random preemption issue paired-mode DMAs.
// Without the kernel hook some transfers are misdirected; with it, none
// are (at the cost of retries).
func TestPairedRaceUnsafeVsKernelMod(t *testing.T) {
	raceyRun := func(method Method, seed uint64) (misdirected int, failed int) {
		m := Machine(method)
		accepted := dmatest.Accepted(m.Engine)
		type job struct {
			p        *proc.Process
			h        *Handle
			src, dst vm.VAddr
			srcF     phys.Addr
			dstF     phys.Addr
		}
		var jobs []*job
		for i := 0; i < 2; i++ {
			j := &job{src: srcVA, dst: dstVA}
			j.p = m.NewProcess("p", func(c *proc.Context) error {
				for k := 0; k < 10; k++ {
					st, err := j.h.DMA(c, j.src, j.dst, 64)
					if errors.Is(err, ErrRetriesExhausted) {
						failed++
						continue
					}
					if err != nil {
						return err
					}
					if st == dma.StatusFailure {
						failed++
					}
				}
				return nil
			})
			h, err := method.Attach(m, j.p)
			if err != nil {
				t.Fatal(err)
			}
			j.h = h
			frames, err := m.SetupPages(j.p, j.src, 1, vm.Read|vm.Write)
			if err != nil {
				t.Fatal(err)
			}
			j.srcF = frames[0]
			frames, err = m.SetupPages(j.p, j.dst, 1, vm.Read|vm.Write)
			if err != nil {
				t.Fatal(err)
			}
			j.dstF = frames[0]
			jobs = append(jobs, j)
		}
		if err := m.Run(proc.NewRandom(seed), 5_000_000); err != nil {
			t.Fatal(err)
		}
		m.Settle()
		legal := map[[2]phys.Addr]bool{}
		for _, j := range jobs {
			legal[[2]phys.Addr{j.srcF, j.dstF}] = true
		}
		for _, tr := range *accepted {
			ps := phys.Addr(m.Cfg.PageSize)
			pair := [2]phys.Addr{tr.Src &^ (ps - 1), tr.Dst &^ (ps - 1)}
			if !legal[pair] {
				misdirected++
			}
		}
		return misdirected, failed
	}

	sawUnsafeMisdirect := false
	for seed := uint64(1); seed <= 20; seed++ {
		unsafeMis, _ := raceyRun(SHRIMP2{WithKernelMod: false, MaxRetries: 1}, seed)
		if unsafeMis > 0 {
			sawUnsafeMisdirect = true
		}
		safeMis, _ := raceyRun(SHRIMP2{WithKernelMod: true}, seed)
		if safeMis != 0 {
			t.Fatalf("seed %d: SHRIMP2 with kernel mod misdirected %d transfers", seed, safeMis)
		}
		flashMis, _ := raceyRun(FLASH{}, seed)
		if flashMis != 0 {
			t.Fatalf("seed %d: FLASH misdirected %d transfers", seed, flashMis)
		}
	}
	if !sawUnsafeMisdirect {
		t.Fatal("20 random schedules never misdirected the unsafe SHRIMP2 — race model broken?")
	}
}

// TestUserMethodsSafeUnderPreemption: the paper's methods survive the
// same random-preemption storm with no misdirection and no kernel mod.
func TestUserMethodsSafeUnderPreemption(t *testing.T) {
	methods := []Method{
		KeyBased{}, ExtShadow{}, PALCode{},
		// Concurrent repeated-passing users reset each other's FSM
		// progress; under instruction-level random preemption an
		// attempt succeeds only when it lands uninterrupted, so give
		// the retry loop room (safety, not liveness, is asserted).
		RepeatedPassing{Len: 5, Barriers: true, MaxRetries: 4096},
	}
	for _, method := range methods {
		method := method
		t.Run(method.Name(), func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				m := Machine(method)
				accepted := dmatest.Accepted(m.Engine)
				type job struct {
					h    *Handle
					srcF phys.Addr
					dstF phys.Addr
				}
				var jobs []*job
				for i := 0; i < 2; i++ {
					j := &job{}
					p := m.NewProcess("p", func(c *proc.Context) error {
						for k := 0; k < 6; k++ {
							if _, err := j.h.DMA(c, srcVA, dstVA, 64); err != nil {
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
					frames, err := m.SetupPages(p, srcVA, 1, vm.Read|vm.Write)
					if err != nil {
						t.Fatal(err)
					}
					j.srcF = frames[0]
					frames, err = m.SetupPages(p, dstVA, 1, vm.Read|vm.Write)
					if err != nil {
						t.Fatal(err)
					}
					j.dstF = frames[0]
					jobs = append(jobs, j)
				}
				if err := m.Run(proc.NewRandom(seed), 5_000_000); err != nil {
					t.Fatal(err)
				}
				for _, p := range m.Runner.Processes() {
					if p.Err() != nil {
						t.Fatalf("seed %d: %v", seed, p.Err())
					}
				}
				legal := map[[2]phys.Addr]bool{}
				for _, j := range jobs {
					legal[[2]phys.Addr{j.srcF, j.dstF}] = true
				}
				ps := phys.Addr(m.Cfg.PageSize)
				for _, tr := range *accepted {
					pair := [2]phys.Addr{tr.Src &^ (ps - 1), tr.Dst &^ (ps - 1)}
					if !legal[pair] {
						t.Fatalf("seed %d: misdirected transfer %v->%v", seed, tr.Src, tr.Dst)
					}
				}
				if m.Kernel.KernelModified() {
					t.Fatalf("%s required a kernel modification", method.Name())
				}
			}
		})
	}
}

// TestExtShadowNoContextsVariant exercises §3.2's engine without
// register contexts: single process works in 2 accesses; two processes
// under random preemption both complete (with clean retries, never
// misdirection).
func TestExtShadowNoContextsVariant(t *testing.T) {
	method := ExtShadow{NoContexts: true}
	w := newWorld(t, method)
	w.m.Mem.Fill(w.srcFrame, 64, 0x19)
	var status uint64
	w.run(t, func(c *proc.Context) error {
		st, err := w.h.DMA(c, srcVA, dstVA, 64)
		status = st
		return err
	})
	if status == dma.StatusFailure {
		t.Fatal("single-process initiation failed")
	}
	w.m.Settle()
	got, _ := w.m.Mem.ReadBytes(w.dstFrame, 64)
	if got[0] != 0x19 {
		t.Fatal("data not moved")
	}
	// Poll is unavailable in this variant (no per-context status
	// register); the nil context is never touched.
	if _, err := w.h.Poll(nil); !errors.Is(err, ErrNoPoll) {
		t.Fatalf("Poll on no-context variant: %v", err)
	}

	// Two-process preemption storm: same invariant as the full variant.
	for seed := uint64(1); seed <= 8; seed++ {
		m := Machine(method)
		accepted := dmatest.Accepted(m.Engine)
		if !m.Engine.Config().NoRegContexts {
			t.Fatal("ConfigFor did not apply the engine tweak")
		}
		type job struct {
			h          *Handle
			srcF, dstF phys.Addr
		}
		var jobs []*job
		for i := 0; i < 2; i++ {
			j := &job{}
			p := m.NewProcess("p", func(c *proc.Context) error {
				for k := 0; k < 6; k++ {
					if _, err := j.h.DMA(c, srcVA, dstVA, 64); err != nil {
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
			frames, err := m.SetupPages(p, srcVA, 1, vm.Read|vm.Write)
			if err != nil {
				t.Fatal(err)
			}
			j.srcF = frames[0]
			frames, err = m.SetupPages(p, dstVA, 1, vm.Read|vm.Write)
			if err != nil {
				t.Fatal(err)
			}
			j.dstF = frames[0]
			jobs = append(jobs, j)
		}
		if err := m.Run(proc.NewRandom(seed), 5_000_000); err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Runner.Processes() {
			if p.Err() != nil {
				t.Fatalf("seed %d: %v", seed, p.Err())
			}
		}
		legal := map[[2]phys.Addr]bool{}
		for _, j := range jobs {
			legal[[2]phys.Addr{j.srcF, j.dstF}] = true
		}
		ps := phys.Addr(m.Cfg.PageSize)
		for _, tr := range *accepted {
			pair := [2]phys.Addr{tr.Src &^ (ps - 1), tr.Dst &^ (ps - 1)}
			if !legal[pair] {
				t.Fatalf("seed %d: misdirected transfer %v->%v", seed, tr.Src, tr.Dst)
			}
		}
	}
}

// TestRepeatedPassingNeedsBarriers is experiment X3: on a weakly
// ordered machine (loads bypass posted stores), the 5-access sequence
// without barriers never reaches the engine in order; with barriers it
// works.
func TestRepeatedPassingNeedsBarriers(t *testing.T) {
	run := func(barriers bool) (uint64, error) {
		method := RepeatedPassing{Len: 5, Barriers: barriers, MaxRetries: 4}
		w := newWorld(t, method)
		w.m.WB.SetDrainOnLoadMiss(false) // aggressive write buffer
		var status uint64
		var dmaErr error
		w.body = func(c *proc.Context) error {
			status, dmaErr = w.h.DMA(c, srcVA, dstVA, 64)
			return nil
		}
		if err := w.m.Run(proc.NewRoundRobin(8), 1_000_000); err != nil {
			t.Fatal(err)
		}
		return status, dmaErr
	}
	st, err := run(false)
	if err == nil && st != dma.StatusFailure {
		t.Fatalf("barrier-less sequence succeeded on weakly ordered bus (status %#x)", st)
	}
	st, err = run(true)
	if err != nil || st == dma.StatusFailure {
		t.Fatalf("barriered sequence failed on weakly ordered bus: status=%#x err=%v", st, err)
	}
}

// TestWaitBlockingVsPolling: both waits see the transfer through, but
// the blocking wait (SysDMAWait: sleep until the completion interrupt)
// costs the waiter a single trap of CPU time, while user-level polling
// burns CPU for the whole ~2 ms transfer — the poll-vs-interrupt trade.
func TestWaitBlockingVsPolling(t *testing.T) {
	const (
		bigSrcVA = vm.VAddr(0x100000)
		bigDstVA = vm.VAddr(0x200000)
		bigSize  = 100_000 // ~2 ms at 50 MB/s
	)
	run := func(blocking bool) (waiterCPU sim.Time) {
		method := ExtShadow{}
		m := Machine(method)
		var h *Handle
		waiter := m.NewProcess("waiter", func(c *proc.Context) error {
			st, err := h.DMA(c, bigSrcVA, bigDstVA, bigSize)
			if err != nil {
				return err
			}
			if st == dma.StatusFailure {
				return ErrRetriesExhausted
			}
			if blocking {
				return h.WaitBlocking(c)
			}
			return h.Wait(c, 1_000_000)
		})
		var err error
		if h, err = method.Attach(m, waiter); err != nil {
			t.Fatal(err)
		}
		if _, err := m.SetupPages(waiter, bigSrcVA, 13, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		if _, err := m.SetupPages(waiter, bigDstVA, 13, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(proc.NewRoundRobin(4), 10_000_000); err != nil {
			t.Fatal(err)
		}
		if waiter.Err() != nil {
			t.Fatalf("blocking=%v: %v", blocking, waiter.Err())
		}
		if m.Clock.Now() < 2*sim.Millisecond {
			t.Fatalf("blocking=%v: finished at %v, before the transfer could complete",
				blocking, m.Clock.Now())
		}
		return waiter.CPUTime()
	}
	polling := run(false)
	sleeping := run(true)
	if sleeping*10 > polling {
		t.Fatalf("blocking wait cost %v CPU vs polling %v — expected >=10x saving",
			sleeping, polling)
	}
}

// TestInitiationContendsWithDMATraffic: while the engine streams a
// large transfer, a new initiation pays bus contention (cycle
// stealing) — the real-machine effect the paper's board exhibited.
func TestInitiationContendsWithDMATraffic(t *testing.T) {
	w := newWorld(t, ExtShadow{})
	w.m.Mem.Fill(w.srcFrame, 4096, 1)
	var quiet, contended sim.Time
	w.run(t, func(c *proc.Context) error {
		// Quiet baseline (zero-length: no transfer started).
		if _, err := w.h.DMA(c, srcVA, dstVA, 0); err != nil { // warm TLB
			return err
		}
		start := w.m.Clock.Now()
		if _, err := w.h.DMA(c, srcVA+16, dstVA+16, 0); err != nil {
			return err
		}
		quiet = w.m.Clock.Now() - start
		// Start a long transfer (4 KiB ≈ 82 µs at 50 MB/s), then
		// initiate again while it streams.
		if _, err := w.h.DMA(c, srcVA, dstVA, 4096); err != nil {
			return err
		}
		c.Spin(1000) // ~6.7 µs: well inside the transfer window
		start = w.m.Clock.Now()
		if _, err := w.h.DMA(c, srcVA+32, dstVA+32, 0); err != nil {
			return err
		}
		contended = w.m.Clock.Now() - start
		return nil
	})
	if contended <= quiet {
		t.Fatalf("no contention: quiet %v, during transfer %v", quiet, contended)
	}
	if contended > 3*quiet {
		t.Fatalf("contention model too aggressive: %v vs %v", contended, quiet)
	}
	if w.m.Bus.Counters().StolenCycles == 0 {
		t.Fatal("stolen cycles not counted")
	}
}

// TestKeyGuessing: a forger hammering a context with random keys never
// lands an argument (the §3.1 "easier to guess a UNIX password" claim).
func TestKeyGuessing(t *testing.T) {
	w := newWorld(t, KeyBased{})
	rng := sim.NewRand(99)
	const tries = 2000
	w.run(t, func(c *proc.Context) error {
		for i := 0; i < tries; i++ {
			forged := dma.PackKey(rng.Uint64()>>dma.KeyShift, w.h.Context())
			if forged == dma.PackKey(w.h.key, w.h.Context()) {
				continue // astronomically unlikely; skip if the RNG gods laugh
			}
			// Vary the target address so the write buffer cannot merge
			// tries; every forgery must reach the engine's key check.
			off := vm.VAddr((i % 1000) * 8)
			if err := c.Store(shadow(dstVA+off), phys.Size64, forged); err != nil {
				return err
			}
		}
		if err := c.MB(); err != nil { // push the last batch out
			return err
		}
		// After the storm, the context must hold no arguments: a size
		// store + status load must refuse to start anything.
		if err := c.Store(w.ctxPageVA(), phys.Size64, 64); err != nil {
			return err
		}
		if err := c.MB(); err != nil {
			return err
		}
		st, err := c.Load(w.ctxPageVA(), phys.Size64)
		if err != nil {
			return err
		}
		if st != dma.StatusFailure {
			t.Errorf("forged keys armed the context (status %#x)", st)
		}
		return nil
	})
	if got := w.m.Engine.Counters().KeyMismatches; got != tries {
		t.Fatalf("key mismatches = %d, want %d", got, tries)
	}
	if w.m.Engine.Counters().Started != 0 {
		t.Fatal("a forged key started a transfer")
	}
}

// ctxPageVA exposes the kernel's context-page mapping for tests.
func (w *world) ctxPageVA() vm.VAddr { return 0xC000_0000 }
