package dma

import (
	"bytes"
	"strings"
	"testing"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

const (
	testPageSize = 8192
	testMemSize  = 1 << 20 // 1 MiB
	shadowBase   = phys.Addr(0x4000_0000)
	ctxPageBase  = phys.Addr(0x2000_0000)
	controlBase  = phys.Addr(0x2100_0000)
	atomicBase   = phys.Addr(0x8000_0000)
	remoteBase   = phys.Addr(0x0200_0000) // 32 MiB, inside the 26-bit encode space
)

func testConfig(mode Mode) Config {
	return Config{
		Mode:           mode,
		SeqLen:         5,
		Contexts:       4,
		CtxBits:        2,
		MemBits:        26,
		PageSize:       testPageSize,
		MemSize:        testMemSize,
		ShadowBase:     shadowBase,
		CtxPageBase:    ctxPageBase,
		ControlBase:    controlBase,
		AtomicBase:     atomicBase,
		RemoteBase:     remoteBase,
		NodeShift:      20,
		KeyCheckCycles: 2,
		StartupTime:    sim.Microsecond,
		Bandwidth:      100_000_000, // 100 MB/s
	}
}

type engFixture struct {
	e      *Engine
	mem    *phys.Memory
	events *sim.EventQueue
}

func newEngine(t *testing.T, mode Mode, mut func(*Config)) *engFixture {
	t.Helper()
	cfg := testConfig(mode)
	if mut != nil {
		mut(&cfg)
	}
	mem := phys.New(testMemSize)
	events := new(sim.EventQueue)
	e, err := New(cfg, events, mem)
	if err != nil {
		t.Fatal(err)
	}
	return &engFixture{e: e, mem: mem, events: events}
}

// accepted subscribes to the engine's accept hook: the returned list
// grows by every transfer accepted from now on, in start order.
func (f *engFixture) accepted() *[]Transfer {
	var log []Transfer
	f.e.SetAcceptHook(func(t Transfer) { log = append(log, t) })
	return &log
}

// settle runs all pending delivery events and returns the final time.
func (f *engFixture) settle() sim.Time { return f.events.Drain(0) }

func (f *engFixture) fillSrc(addr phys.Addr, n int, v byte) {
	if err := f.mem.Fill(addr, n, v); err != nil {
		panic(err)
	}
}

func (f *engFixture) expectMoved(t *testing.T, dst phys.Addr, n int, v byte) {
	t.Helper()
	got, err := f.mem.ReadBytes(dst, n)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{v}, n)
	if !bytes.Equal(got, want) {
		t.Fatalf("destination bytes = %v..., want all %#x", got[:min(8, len(got))], v)
	}
}

// --- configuration ---

func TestConfigValidation(t *testing.T) {
	base := testConfig(ModePaired)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero membits", func(c *Config) { c.MemBits = 0 }},
		{"membits too large", func(c *Config) { c.MemBits = 48 }},
		{"memsize too big", func(c *Config) { c.MemBits = 10; c.MemSize = 1 << 20 }},
		{"bad page size", func(c *Config) { c.PageSize = 1000 }},
		{"zero bandwidth", func(c *Config) { c.Bandwidth = 0 }},
		{"keyed no contexts", func(c *Config) { c.Mode = ModeKeyed; c.Contexts = 0 }},
		{"extended no bits", func(c *Config) { c.Mode = ModeExtended; c.CtxBits = 0 }},
		{"repeated bad len", func(c *Config) { c.Mode = ModeRepeated; c.SeqLen = 2 }},
		{"unknown mode", func(c *Config) { c.Mode = Mode(99) }},
		{"remote not encodable", func(c *Config) { c.RemoteBase = 1 << 30 }},
		{"remote no shift", func(c *Config) { c.NodeShift = 0 }},
	}
	for _, c := range cases {
		cfg := base
		c.mut(&cfg)
		if _, err := New(cfg, new(sim.EventQueue), phys.New(testMemSize)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := New(base, new(sim.EventQueue), phys.New(testMemSize)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := New(base, nil, phys.New(testMemSize)); err == nil {
		t.Error("engine without an event queue accepted")
	}
}

func TestShadowEncoding(t *testing.T) {
	cfg := testConfig(ModeExtended)
	sa := cfg.Shadow(0x1234, 3)
	if sa != shadowBase+phys.Addr(3<<26)+0x1234 {
		t.Fatalf("Shadow(0x1234, 3) = %v", sa)
	}
	cfgP := testConfig(ModePaired)
	if cfgP.Shadow(0x1234, 3) != shadowBase+0x1234 {
		t.Fatal("non-extended mode must ignore ctx in encoding")
	}
	aa := cfg.AtomicShadow(0x40, AtomicCAS)
	if aa != atomicBase+phys.Addr(2<<26)+0x40 {
		t.Fatalf("AtomicShadow = %v", aa)
	}
	if cfg.CtxPage(2) != ctxPageBase+2*testPageSize {
		t.Fatalf("CtxPage(2) = %v", cfg.CtxPage(2))
	}
	if cfg.ShadowWindowSize() != (1<<26)<<2 {
		t.Fatalf("extended shadow window = %#x", cfg.ShadowWindowSize())
	}
	if cfgP.ShadowWindowSize() != 1<<26 {
		t.Fatalf("paired shadow window = %#x", cfgP.ShadowWindowSize())
	}
	if cfg.AtomicWindowSize() != 4<<26 {
		t.Fatalf("atomic window = %#x", cfg.AtomicWindowSize())
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModePaired: "paired", ModeKeyed: "keyed", ModeExtended: "extended",
		ModeRepeated: "repeated", ModeMappedOut: "mapped-out",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d → %q, want %q", m, m.String(), want)
		}
	}
	if !strings.Contains(Mode(42).String(), "42") {
		t.Error("unknown mode string")
	}
}

// --- paired mode (SHRIMP-2 / PAL / FLASH) ---

func TestPairedInitiation(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	f.fillSrc(0x1000, 256, 0xaa)
	// STORE size TO shadow(dst=0x8000); LOAD FROM shadow(src=0x1000).
	if _, err := f.e.Store(0, f.e.cfg.Shadow(0x8000, 0), phys.Size64, 256); err != nil {
		t.Fatal(err)
	}
	st, _, err := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if st == StatusFailure {
		t.Fatal("valid pair rejected")
	}
	if st != 256 {
		t.Fatalf("initial remaining = %d, want 256", st)
	}
	f.settle()
	f.expectMoved(t, 0x8000, 256, 0xaa)
	if s := f.e.Counters(); s.Started != 1 || s.Completed != 1 || s.BytesMoved != 256 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPairedLoadWithoutPendingFails(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	st, _, err := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	if err != nil || st != StatusFailure {
		t.Fatalf("st=%#x err=%v, want StatusFailure", st, err)
	}
	if f.e.Counters().Rejected != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestPairedRaceOverwrites(t *testing.T) {
	// The §2.5 hazard: process B's store between A's store and A's load
	// replaces A's destination. The engine cannot tell — this is why
	// SHRIMP-2 needs the kernel hook.
	f := newEngine(t, ModePaired, nil)
	f.fillSrc(0x1000, 64, 0x11)
	f.e.Store(0, f.e.cfg.Shadow(0x8000, 0), phys.Size64, 64)        // victim dst
	f.e.Store(0, f.e.cfg.Shadow(0x9000, 0), phys.Size64, 64)        // attacker dst overwrites
	st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64) // victim load
	if st == StatusFailure {
		t.Fatal("engine rejected; the paired race should silently misdirect")
	}
	f.settle()
	f.expectMoved(t, 0x9000, 64, 0x11) // data went to the attacker's address
	if v, _ := f.mem.Read(0x8000, phys.Size64); v != 0 {
		t.Fatal("victim destination unexpectedly written")
	}
}

func TestPairedAbortPendingHook(t *testing.T) {
	// SHRIMP-2 with the kernel modification: aborting at "context
	// switch" turns the silent misdirection into a clean failure.
	f := newEngine(t, ModePaired, nil)
	f.e.Store(0, f.e.cfg.Shadow(0x8000, 0), phys.Size64, 64)
	f.e.AbortPending() // the context-switch handler's invalidation
	st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	if st != StatusFailure {
		t.Fatalf("aborted pair returned %#x, want failure", st)
	}
	if f.e.Counters().AbortedPending != 1 {
		t.Fatal("abort not counted")
	}
	f.e.AbortPending() // idempotent when nothing pending
	if f.e.Counters().AbortedPending != 1 {
		t.Fatal("no-op abort counted")
	}
}

func TestPairedPIDTracking(t *testing.T) {
	// FLASH: the engine knows which process runs; a pair spanning a
	// context switch is refused.
	f := newEngine(t, ModePaired, nil)
	f.e.SetPIDTracking(true)
	f.e.SetCurrentPID(1)
	f.e.Store(0, f.e.cfg.Shadow(0x8000, 0), phys.Size64, 64)
	f.e.SetCurrentPID(2) // context switch: hook informs engine
	st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	if st != StatusFailure {
		t.Fatalf("cross-PID pair returned %#x, want failure", st)
	}
	// Same-PID pair succeeds.
	f.e.SetCurrentPID(1)
	f.e.Store(0, f.e.cfg.Shadow(0x8000, 0), phys.Size64, 64)
	st, _, _ = f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	if st == StatusFailure {
		t.Fatal("same-PID pair rejected")
	}
	if f.e.curPID != 1 {
		t.Fatal("current PID wrong")
	}
}

// --- keyed mode (§3.1) ---

func TestKeyedInitiation(t *testing.T) {
	f := newEngine(t, ModeKeyed, nil)
	const ctx, key = 1, uint64(0xdeadbeef)
	f.e.SetKey(ctx, key)
	f.fillSrc(0x2000, 128, 0x5c)
	// Figure 3: STORE key#ctx TO shadow(dst); STORE key#ctx TO
	// shadow(src); STORE size TO ctx page; LOAD status FROM ctx page.
	f.e.Store(0, f.e.cfg.Shadow(0xa000, 0), phys.Size64, PackKey(key, ctx))
	f.e.Store(0, f.e.cfg.Shadow(0x2000, 0), phys.Size64, PackKey(key, ctx))
	f.e.Store(0, f.e.cfg.CtxPage(ctx)+0x40, phys.Size64, 128) // any offset aliases size
	st, _, err := f.e.Load(0, f.e.cfg.CtxPage(ctx), phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if st == StatusFailure || st != 128 {
		t.Fatalf("status = %#x, want 128 remaining", st)
	}
	f.settle()
	f.expectMoved(t, 0xa000, 128, 0x5c)
}

func TestKeyedWrongKeyIgnored(t *testing.T) {
	f := newEngine(t, ModeKeyed, nil)
	f.e.SetKey(1, 0x1111)
	// Attacker guesses a wrong key for context 1.
	f.e.Store(0, f.e.cfg.Shadow(0xa000, 0), phys.Size64, PackKey(0x2222, 1))
	if f.e.Counters().KeyMismatches != 1 {
		t.Fatal("mismatch not counted")
	}
	// Context 1 must have no destination argument: a size store plus
	// status load cannot start anything.
	f.e.Store(0, f.e.cfg.CtxPage(1), phys.Size64, 64)
	st, _, _ := f.e.Load(0, f.e.cfg.CtxPage(1), phys.Size64)
	if st != StatusFailure {
		t.Fatalf("context with only forged arguments started a DMA: %#x", st)
	}
	if f.e.Counters().Started != 0 {
		t.Fatal("transfer started from forged key")
	}
}

func TestKeyedUnassignedContextRejects(t *testing.T) {
	f := newEngine(t, ModeKeyed, nil)
	// Key 0 means unassigned: even "key 0" cannot address it.
	f.e.Store(0, f.e.cfg.Shadow(0xa000, 0), phys.Size64, PackKey(0, 2))
	if f.e.Counters().KeyMismatches != 1 {
		t.Fatal("unassigned context accepted an argument")
	}
	// Out-of-range context id.
	f.e.Store(0, f.e.cfg.Shadow(0xa000, 0), phys.Size64, PackKey(7, 200))
	if f.e.Counters().KeyMismatches != 2 {
		t.Fatal("out-of-range context accepted an argument")
	}
}

func TestKeyedInterruptedSequenceSurvives(t *testing.T) {
	// The point of register contexts: another process's initiation
	// between a victim's argument stores cannot mix arguments, because
	// each process writes its own context.
	f := newEngine(t, ModeKeyed, nil)
	f.e.SetKey(1, 0xaaa)
	f.e.SetKey(2, 0xbbb)
	f.fillSrc(0x2000, 64, 0x11) // victim source
	f.fillSrc(0x3000, 64, 0x22) // intruder source

	f.e.Store(0, f.e.cfg.Shadow(0xa000, 0), phys.Size64, PackKey(0xaaa, 1)) // victim dst
	// "Context switch": the other process runs a complete DMA.
	f.e.Store(0, f.e.cfg.Shadow(0xb000, 0), phys.Size64, PackKey(0xbbb, 2))
	f.e.Store(0, f.e.cfg.Shadow(0x3000, 0), phys.Size64, PackKey(0xbbb, 2))
	f.e.Store(0, f.e.cfg.CtxPage(2), phys.Size64, 64)
	if st, _, _ := f.e.Load(0, f.e.cfg.CtxPage(2), phys.Size64); st == StatusFailure {
		t.Fatal("intruder's own DMA failed")
	}
	// Victim resumes and completes its sequence untouched.
	f.e.Store(0, f.e.cfg.Shadow(0x2000, 0), phys.Size64, PackKey(0xaaa, 1)) // victim src
	f.e.Store(0, f.e.cfg.CtxPage(1), phys.Size64, 64)
	if st, _, _ := f.e.Load(0, f.e.cfg.CtxPage(1), phys.Size64); st == StatusFailure {
		t.Fatal("victim's DMA failed after interleaving")
	}
	f.settle()
	f.expectMoved(t, 0xa000, 64, 0x11)
	f.expectMoved(t, 0xb000, 64, 0x22)
}

func TestKeyedShadowLoadIsProtocolError(t *testing.T) {
	f := newEngine(t, ModeKeyed, nil)
	st, _, err := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	if err != nil || st != StatusFailure {
		t.Fatalf("shadow load in keyed mode: st=%#x err=%v", st, err)
	}
}

func TestKeyedArgumentRestart(t *testing.T) {
	// A third keyed address store after (dst, src) are both set begins a
	// fresh argument set (stale pairs must not linger forever).
	f := newEngine(t, ModeKeyed, nil)
	f.e.SetKey(1, 0x77)
	f.fillSrc(0x2000, 32, 0x33)
	f.e.Store(0, f.e.cfg.Shadow(0x5000, 0), phys.Size64, PackKey(0x77, 1)) // dst (stale)
	f.e.Store(0, f.e.cfg.Shadow(0x6000, 0), phys.Size64, PackKey(0x77, 1)) // src (stale)
	// Process decides to start over with a different pair:
	f.e.Store(0, f.e.cfg.Shadow(0xa000, 0), phys.Size64, PackKey(0x77, 1)) // new dst
	f.e.Store(0, f.e.cfg.Shadow(0x2000, 0), phys.Size64, PackKey(0x77, 1)) // new src
	f.e.Store(0, f.e.cfg.CtxPage(1), phys.Size64, 32)
	st, _, _ := f.e.Load(0, f.e.cfg.CtxPage(1), phys.Size64)
	if st == StatusFailure {
		t.Fatal("restarted argument set rejected")
	}
	f.settle()
	f.expectMoved(t, 0xa000, 32, 0x33)
}

func TestSetKeyRange(t *testing.T) {
	f := newEngine(t, ModeKeyed, nil)
	if err := f.e.SetKey(-1, 1); err == nil {
		t.Fatal("negative context accepted")
	}
	if err := f.e.SetKey(99, 1); err == nil {
		t.Fatal("out-of-range context accepted")
	}
	if f.e.NumContexts() != 4 {
		t.Fatalf("NumContexts = %d", f.e.NumContexts())
	}
}

// --- extended shadow addressing (§3.2) ---

func TestExtendedInitiation(t *testing.T) {
	f := newEngine(t, ModeExtended, nil)
	f.fillSrc(0x2000, 512, 0x7e)
	const ctx = 2
	// Figure 4: two instructions.
	f.e.Store(0, f.e.cfg.Shadow(0xc000, ctx), phys.Size64, 512)
	st, _, err := f.e.Load(0, f.e.cfg.Shadow(0x2000, ctx), phys.Size64)
	if err != nil || st == StatusFailure {
		t.Fatalf("st=%#x err=%v", st, err)
	}
	f.settle()
	f.expectMoved(t, 0xc000, 512, 0x7e)
}

func TestExtendedContextIsolation(t *testing.T) {
	// Two processes with different context bits interleave arbitrarily;
	// both DMAs start correctly — the §3.2 guarantee.
	f := newEngine(t, ModeExtended, nil)
	f.fillSrc(0x2000, 64, 0x44)
	f.fillSrc(0x3000, 64, 0x55)
	f.e.Store(0, f.e.cfg.Shadow(0xa000, 0), phys.Size64, 64) // P0 store
	f.e.Store(0, f.e.cfg.Shadow(0xb000, 1), phys.Size64, 64) // P1 store (interleaved!)
	st0, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x2000, 0), phys.Size64)
	st1, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x3000, 1), phys.Size64)
	if st0 == StatusFailure || st1 == StatusFailure {
		t.Fatalf("interleaved extended DMAs failed: %#x %#x", st0, st1)
	}
	f.settle()
	f.expectMoved(t, 0xa000, 64, 0x44)
	f.expectMoved(t, 0xb000, 64, 0x55)
}

func TestExtendedNoRegContextsPairing(t *testing.T) {
	// §3.2's cheap engine variant: one pending slot, context ids of the
	// store/load pair must match.
	f := newEngine(t, ModeExtended, func(c *Config) { c.NoRegContexts = true })
	f.fillSrc(0x2000, 64, 0x4d)
	// Matching pair: starts.
	f.e.Store(0, f.e.cfg.Shadow(0xa000, 1), phys.Size64, 64)
	st, _, err := f.e.Load(0, f.e.cfg.Shadow(0x2000, 1), phys.Size64)
	if err != nil || st == StatusFailure {
		t.Fatalf("matching pair rejected: st=%#x err=%v", st, err)
	}
	f.settle()
	f.expectMoved(t, 0xa000, 64, 0x4d)

	// Interleaved pair from another context: the victim's load must be
	// refused (clean failure instead of the paired-mode hijack).
	f.e.Store(0, f.e.cfg.Shadow(0xa000, 1), phys.Size64, 64) // ctx 1 store
	f.e.Store(0, f.e.cfg.Shadow(0xb000, 2), phys.Size64, 64) // ctx 2 overwrites
	st, _, _ = f.e.Load(0, f.e.cfg.Shadow(0x2000, 1), phys.Size64)
	if st != StatusFailure {
		t.Fatalf("cross-context pair started a DMA: %#x", st)
	}
	// Context 2's own load now also fails (slot was consumed by the
	// rejection) — it simply retries.
	st, _, _ = f.e.Load(0, f.e.cfg.Shadow(0x3000, 2), phys.Size64)
	if st != StatusFailure {
		t.Fatalf("stale slot started a DMA: %#x", st)
	}
	// Retry succeeds.
	f.e.Store(0, f.e.cfg.Shadow(0xb000, 2), phys.Size64, 64)
	st, _, _ = f.e.Load(0, f.e.cfg.Shadow(0x3000, 2), phys.Size64)
	if st == StatusFailure {
		t.Fatal("retried pair rejected")
	}
	if f.e.Counters().Started != 2 {
		t.Fatalf("started = %d, want 2", f.e.Counters().Started)
	}
}

func TestExtendedLoadWithoutStoreFails(t *testing.T) {
	f := newEngine(t, ModeExtended, nil)
	st, _, err := f.e.Load(0, f.e.cfg.Shadow(0x2000, 1), phys.Size64)
	if err != nil || st != StatusFailure {
		t.Fatalf("st=%#x err=%v", st, err)
	}
}

func TestExtendedPolling(t *testing.T) {
	f := newEngine(t, ModeExtended, nil)
	f.fillSrc(0x2000, 100_000, 0x99) // 100 kB: 1 ms at 100 MB/s
	f.e.Store(0, f.e.cfg.Shadow(0x40000, 1), phys.Size64, 100_000)
	st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x2000, 1), phys.Size64)
	if st != 100_000 {
		t.Fatalf("initial remaining = %d", st)
	}
	// Poll halfway through (startup 1µs + 1000µs transfer).
	mid, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x2000, 1), phys.Size64)
	_ = mid // at time 0 still full
	half := sim.Microsecond + 500*sim.Microsecond
	st, _, _ = f.e.Load(half, f.e.cfg.Shadow(0x2000, 1), phys.Size64)
	if st == 0 || st == StatusFailure || st >= 100_000 {
		t.Fatalf("mid-transfer remaining = %d", st)
	}
	st, _, _ = f.e.Load(2*sim.Millisecond, f.e.cfg.Shadow(0x2000, 1), phys.Size64)
	if st != 0 {
		t.Fatalf("post-completion remaining = %d", st)
	}
}

// --- repeated passing (§3.3) ---

// repAccess drives the FSM with a raw shadow access.
func (f *engFixture) repStore(at sim.Time, pa phys.Addr, size uint64) {
	if _, err := f.e.Store(at, f.e.cfg.Shadow(pa, 0), phys.Size64, size); err != nil {
		panic(err)
	}
}

func (f *engFixture) repLoad(at sim.Time, pa phys.Addr) uint64 {
	v, _, err := f.e.Load(at, f.e.cfg.Shadow(pa, 0), phys.Size64)
	if err != nil {
		panic(err)
	}
	return v
}

func TestRepeated5HappyPath(t *testing.T) {
	f := newEngine(t, ModeRepeated, nil)
	f.fillSrc(0x2000, 64, 0x3c)
	// Figure 7: S d, L s, S d, L s, L d.
	f.repStore(0, 0xa000, 64)
	if st := f.repLoad(0, 0x2000); st == StatusFailure {
		t.Fatal("access 2 rejected")
	}
	f.repStore(0, 0xa000, 64)
	if st := f.repLoad(0, 0x2000); st == StatusFailure {
		t.Fatal("access 4 rejected")
	}
	st := f.repLoad(0, 0xa000)
	if st == StatusFailure {
		t.Fatal("access 5 rejected")
	}
	if f.e.Counters().Started != 1 {
		t.Fatalf("started = %d", f.e.Counters().Started)
	}
	f.settle()
	f.expectMoved(t, 0xa000, 64, 0x3c)
}

func TestRepeated5AddressMismatchRejected(t *testing.T) {
	f := newEngine(t, ModeRepeated, nil)
	f.repStore(0, 0xa000, 64)
	f.repLoad(0, 0x2000)
	f.repStore(0, 0xb000, 64) // wrong destination on access 3 → restart
	f.repLoad(0, 0x2000)      // now access 2 of the restarted sequence
	st := f.repLoad(0, 0xa000)
	// Access 5 of nothing: restarted sequence expects S here → failure.
	if st != StatusFailure {
		t.Fatalf("broken sequence returned %#x", st)
	}
	if f.e.Counters().Started != 0 {
		t.Fatal("broken sequence started a transfer")
	}
	if f.e.Counters().SeqResets == 0 {
		t.Fatal("reset not counted")
	}
}

func TestRepeated5SizeMismatchResets(t *testing.T) {
	f := newEngine(t, ModeRepeated, nil)
	f.repStore(0, 0xa000, 64)
	f.repLoad(0, 0x2000)
	f.repStore(0, 0xa000, 128) // same address, different size → restart
	f.repLoad(0, 0x2000)
	if st := f.repLoad(0, 0xa000); st != StatusFailure {
		t.Fatalf("size-mismatched sequence returned %#x", st)
	}
	if f.e.Counters().Started != 0 {
		t.Fatal("transfer started despite size mismatch")
	}
}

func TestRepeated3Figure5Attack(t *testing.T) {
	// Figure 5 verbatim, at the hardware level: the malicious process
	// starts a DMA C→B while the victim wanted A→B.
	f := newEngine(t, ModeRepeated, func(c *Config) { c.SeqLen = 3 })
	const A, B, C = phys.Addr(0x2000), phys.Addr(0xa000), phys.Addr(0x3000)
	const foo = phys.Addr(0x4000)
	f.fillSrc(A, 64, 0x11)
	f.fillSrc(C, 64, 0x66) // attacker's data

	f.repLoad(0, A)       // 1: victim LOAD status1 FROM shadow(A)
	f.repStore(0, foo, 1) // 2: attacker STORE foo
	f.repLoad(0, foo)     // 3: attacker LOAD shadow(foo) — no DMA (A≠foo)
	if f.e.Counters().Started != 0 {
		t.Fatal("DMA started prematurely")
	}
	f.repLoad(0, C)          // 4: attacker LOAD shadow(C): new sequence
	f.repStore(0, B, 64)     // 5: victim STORE size TO shadow(B)
	stAtk := f.repLoad(0, C) // 6: attacker LOAD shadow(C) → starts C→B!
	if stAtk == StatusFailure {
		t.Fatal("attack sequence did not start the DMA")
	}
	stVic := f.repLoad(0, A) // 7: victim's final load — too late
	if stVic == StatusFailure {
		t.Fatal("victim saw failure; figure 5 has the victim fooled")
	}
	f.settle()
	f.expectMoved(t, B, 64, 0x66) // B holds the ATTACKER's data
	if f.e.Counters().Started != 1 {
		t.Fatalf("started = %d", f.e.Counters().Started)
	}
}

func TestRepeated4Figure6Attack(t *testing.T) {
	// Figure 6 verbatim: attacker (read access to A) completes the
	// victim's 4-sequence, so the DMA starts for the attacker and the
	// victim is told it failed.
	f := newEngine(t, ModeRepeated, func(c *Config) { c.SeqLen = 4 })
	const A, B = phys.Addr(0x2000), phys.Addr(0xa000)
	f.fillSrc(A, 64, 0x11)

	f.repStore(0, B, 64)   // 1: victim STORE size TO shadow(B)
	f.repLoad(0, A)        // 2: victim LOAD rs FROM shadow(A)
	f.repStore(0, B, 64)   // 3: victim STORE size TO shadow(B)
	atk := f.repLoad(0, A) // 4: ATTACKER LOAD rs FROM shadow(A) → DMA started
	if atk == StatusFailure {
		t.Fatal("attacker's completing load did not start the DMA")
	}
	vic := f.repLoad(0, A) // 5: victim LOAD rs FROM shadow(A) → rejected
	if vic != StatusFailure {
		t.Fatalf("victim's load returned %#x, figure 6 says DMA rejected", vic)
	}
	if f.e.Counters().Started != 1 {
		t.Fatalf("started = %d", f.e.Counters().Started)
	}
}

func TestRepeated3HappyPath(t *testing.T) {
	f := newEngine(t, ModeRepeated, func(c *Config) { c.SeqLen = 3 })
	f.fillSrc(0x2000, 32, 0x21)
	f.repLoad(0, 0x2000)
	f.repStore(0, 0xa000, 32)
	if st := f.repLoad(0, 0x2000); st == StatusFailure {
		t.Fatal("valid 3-sequence rejected")
	}
	f.settle()
	f.expectMoved(t, 0xa000, 32, 0x21)
}

func TestRepeated4HappyPath(t *testing.T) {
	f := newEngine(t, ModeRepeated, func(c *Config) { c.SeqLen = 4 })
	f.fillSrc(0x2000, 32, 0x43)
	f.repStore(0, 0xa000, 32)
	f.repLoad(0, 0x2000)
	f.repStore(0, 0xa000, 32)
	if st := f.repLoad(0, 0x2000); st == StatusFailure {
		t.Fatal("valid 4-sequence rejected")
	}
	f.settle()
	f.expectMoved(t, 0xa000, 32, 0x43)
}

// --- mapped-out mode (SHRIMP-1, §2.4) ---

func TestMappedOutInitiation(t *testing.T) {
	f := newEngine(t, ModeMappedOut, nil)
	f.fillSrc(0x2000, 256, 0x2f)
	if err := f.e.MapOut(0x2000, 0xa000); err != nil {
		t.Fatal(err)
	}
	// One compare-and-exchange: address carries source, data carries size.
	st, _, err := f.e.RMW(0, f.e.cfg.Shadow(0x2040, 0), phys.Size64, 32)
	if err != nil || st == StatusFailure {
		t.Fatalf("st=%#x err=%v", st, err)
	}
	f.settle()
	// Same offset within the mapped-out page.
	got, _ := f.mem.ReadBytes(0xa040, 24)
	for _, b := range got {
		if b != 0x2f {
			t.Fatalf("mapped-out destination bytes = %v", got)
		}
	}
}

func TestMappedOutRestrictions(t *testing.T) {
	f := newEngine(t, ModeMappedOut, nil)
	f.e.MapOut(0x2000, 0xa000)
	// Unmapped page: rejected.
	st, _, _ := f.e.RMW(0, f.e.cfg.Shadow(0x6000, 0), phys.Size64, 32)
	if st != StatusFailure {
		t.Fatal("unmapped page initiated a DMA")
	}
	// Crossing the page boundary: rejected (the §2.4 restrictiveness).
	st, _, _ = f.e.RMW(0, f.e.cfg.Shadow(0x2000+testPageSize-8, 0), phys.Size64, 64)
	if st != StatusFailure {
		t.Fatal("page-crossing mapped-out DMA accepted")
	}
	// Unaligned MapOut rejected.
	if err := f.e.MapOut(0x2004, 0xa000); err == nil {
		t.Fatal("unaligned MapOut accepted")
	}
	// Plain loads/stores are not the protocol in this mode.
	if _, err := f.e.Store(0, f.e.cfg.Shadow(0x2000, 0), phys.Size64, 1); err == nil {
		t.Fatal("plain shadow store accepted in mapped-out mode")
	}
	if _, _, err := f.e.Load(0, f.e.cfg.Shadow(0x2000, 0), phys.Size64); err == nil {
		t.Fatal("plain shadow load accepted in mapped-out mode")
	}
}

// --- control page (kernel-level DMA, Figure 1) ---

func TestKernelLevelDMAViaControlPage(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	f.fillSrc(0x2000, 96, 0x88)
	f.e.Store(0, controlBase+RegSource, phys.Size64, 0x2000)
	f.e.Store(0, controlBase+RegDest, phys.Size64, 0xa000)
	f.e.Store(0, controlBase+RegSize, phys.Size64, 96) // starts the DMA
	st, _, err := f.e.Load(0, controlBase+RegStatus, phys.Size64)
	if err != nil || st == StatusFailure {
		t.Fatalf("status = %#x err=%v", st, err)
	}
	f.settle()
	f.expectMoved(t, 0xa000, 96, 0x88)
	// Register reads.
	if v, _, _ := f.e.Load(0, controlBase+RegSource, phys.Size64); v != 0x2000 {
		t.Fatalf("RegSource = %#x", v)
	}
	if v, _, _ := f.e.Load(0, controlBase+RegDest, phys.Size64); v != 0xa000 {
		t.Fatalf("RegDest = %#x", v)
	}
	if v, _, _ := f.e.Load(0, controlBase+RegStarted, phys.Size64); v != 1 {
		t.Fatalf("RegStarted = %d", v)
	}
}

func TestControlPageUnknownRegister(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	if _, err := f.e.Store(0, controlBase+0x100, phys.Size64, 1); err == nil {
		t.Fatal("unknown control write accepted")
	}
	if _, _, err := f.e.Load(0, controlBase+0x100, phys.Size64); err == nil {
		t.Fatal("unknown control read accepted")
	}
}

func TestControlStatusNoTransfer(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	if st, _, _ := f.e.Load(0, controlBase+RegStatus, phys.Size64); st != StatusFailure {
		t.Fatalf("status with no transfer = %#x", st)
	}
}

func TestControlPIDRegister(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	f.e.Store(0, controlBase+RegPID, phys.Size64, 42)
	if v, _, _ := f.e.Load(0, controlBase+RegPID, phys.Size64); v != 42 {
		t.Fatalf("RegPID = %d", v)
	}
	// RegAbort clears a pending pair.
	f.e.Store(0, f.e.cfg.Shadow(0x8000, 0), phys.Size64, 64)
	f.e.Store(0, controlBase+RegAbort, phys.Size64, 1)
	if st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64); st != StatusFailure {
		t.Fatal("RegAbort did not clear the pending pair")
	}
}

// --- atomic operations (§3.5) ---

func TestAtomicAdd(t *testing.T) {
	f := newEngine(t, ModeExtended, nil)
	f.mem.Write(0x5000, phys.Size64, 40)
	old, _, err := f.e.RMW(0, f.e.cfg.AtomicShadow(0x5000, AtomicAdd), phys.Size64, 2)
	if err != nil || old != 40 {
		t.Fatalf("old=%d err=%v", old, err)
	}
	if v, _ := f.mem.Read(0x5000, phys.Size64); v != 42 {
		t.Fatalf("cell = %d", v)
	}
	if f.e.Counters().AtomicOps != 1 {
		t.Fatal("atomic op not counted")
	}
}

func TestAtomicSwap(t *testing.T) {
	f := newEngine(t, ModeExtended, nil)
	f.mem.Write(0x5000, phys.Size64, 7)
	old, _, err := f.e.RMW(0, f.e.cfg.AtomicShadow(0x5000, AtomicSwap), phys.Size64, 9)
	if err != nil || old != 7 {
		t.Fatalf("old=%d err=%v", old, err)
	}
	if v, _ := f.mem.Read(0x5000, phys.Size64); v != 9 {
		t.Fatalf("cell = %d", v)
	}
}

func TestAtomicCAS(t *testing.T) {
	f := newEngine(t, ModeExtended, nil)
	f.mem.Write(0x5000, phys.Size32, 5)
	// Successful CAS: expected 5 → new 6.
	old, _, err := f.e.RMW(0, f.e.cfg.AtomicShadow(0x5000, AtomicCAS), phys.Size32, 5<<32|6)
	if err != nil || old != 5 {
		t.Fatalf("old=%d err=%v", old, err)
	}
	if v, _ := f.mem.Read(0x5000, phys.Size32); v != 6 {
		t.Fatalf("cell after CAS = %d", v)
	}
	// Failing CAS: expected 5 again, but cell is 6.
	old, _, err = f.e.RMW(0, f.e.cfg.AtomicShadow(0x5000, AtomicCAS), phys.Size32, 5<<32|7)
	if err != nil || old != 6 {
		t.Fatalf("failing CAS old=%d err=%v", old, err)
	}
	if v, _ := f.mem.Read(0x5000, phys.Size32); v != 6 {
		t.Fatalf("cell changed on failing CAS: %d", v)
	}
}

func TestAtomicWindowPlainAccess(t *testing.T) {
	f := newEngine(t, ModeExtended, nil)
	f.mem.Write(0x5000, phys.Size64, 123)
	// Plain load through the atomic window reads memory.
	v, _, err := f.e.Load(0, f.e.cfg.AtomicShadow(0x5000, AtomicAdd), phys.Size64)
	if err != nil || v != 123 {
		t.Fatalf("atomic-window load = %d err=%v", v, err)
	}
	// Plain store is rejected: only locked transactions mutate.
	if _, err := f.e.Store(0, f.e.cfg.AtomicShadow(0x5000, AtomicAdd), phys.Size64, 1); err == nil {
		t.Fatal("plain store in atomic window accepted")
	}
	// Unknown op code.
	if _, _, err := f.e.RMW(0, f.e.cfg.AtomicShadow(0x5000, 3), phys.Size64, 1); err == nil {
		t.Fatal("unknown atomic op accepted")
	}
	// Out-of-memory target.
	if _, _, err := f.e.RMW(0, f.e.cfg.AtomicShadow(phys.Addr(testMemSize), AtomicAdd), phys.Size64, 1); err == nil {
		t.Fatal("atomic op beyond memory accepted")
	}
}

func TestRMWOutsideWindows(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	if _, _, err := f.e.RMW(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64, 1); err == nil {
		t.Fatal("shadow RMW accepted in paired mode")
	}
	if _, _, err := f.e.RMW(0, controlBase, phys.Size64, 1); err == nil {
		t.Fatal("control RMW accepted")
	}
}

// --- transfer engine ---

func TestTransferValidation(t *testing.T) {
	f := newEngine(t, ModePaired, func(c *Config) { c.MaxTransfer = 4096 })
	mk := func(src, dst phys.Addr, size uint64) bool {
		f.e.Store(0, f.e.cfg.Shadow(dst, 0), phys.Size64, size)
		st, _, _ := f.e.Load(0, f.e.cfg.Shadow(src, 0), phys.Size64)
		return st != StatusFailure
	}
	if mk(0x1000, 0x8000, 8192) {
		t.Fatal("transfer above MaxTransfer accepted")
	}
	if mk(phys.Addr(testMemSize-16), 0x8000, 64) {
		t.Fatal("source running past memory accepted")
	}
	if mk(0x1000, phys.Addr(testMemSize-16), 64) {
		t.Fatal("destination running past memory accepted")
	}
	if !mk(0x1000, 0x8000, 4096) {
		t.Fatal("legal transfer rejected")
	}
}

func TestTransferQueueing(t *testing.T) {
	// Two back-to-back transfers: the second queues behind the first.
	f := newEngine(t, ModePaired, nil)
	f.fillSrc(0x1000, 1000, 1)
	f.e.Store(0, f.e.cfg.Shadow(0x8000, 0), phys.Size64, 1000)
	f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	t1 := f.e.LastTransfer()
	f.e.Store(0, f.e.cfg.Shadow(0x9000, 0), phys.Size64, 1000)
	f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	t2 := f.e.LastTransfer()
	if t2.Start < t1.End {
		t.Fatalf("second transfer started at %v before first ended at %v", t2.Start, t1.End)
	}
}

func TestTransferRemaining(t *testing.T) {
	tr := &Transfer{Size: 1000, Start: 0, End: 1000 * sim.Nanosecond}
	if tr.Remaining(-sim.Nanosecond) != 1000 {
		t.Fatal("pre-start remaining wrong")
	}
	mid := tr.Remaining(500 * sim.Nanosecond)
	if mid == 0 || mid >= 1000 {
		t.Fatalf("mid remaining = %d", mid)
	}
	if tr.Remaining(1000*sim.Nanosecond) != 0 {
		t.Fatal("end remaining wrong")
	}
	if !tr.Done(1000 * sim.Nanosecond) {
		t.Fatal("Done at End wrong")
	}
	// Nearly complete but not done: remaining stays >= 1.
	if tr.Remaining(999*sim.Nanosecond+999) == 0 {
		t.Fatal("remaining reported 0 before End")
	}
	failed := &Transfer{Failed: true}
	if failed.Remaining(0) != StatusFailure {
		t.Fatal("failed transfer remaining wrong")
	}
	zero := &Transfer{Size: 0, Start: 5, End: 5}
	if zero.Remaining(5) != 0 {
		t.Fatal("zero-size transfer remaining wrong")
	}
}

func TestTransferChunkedVisibility(t *testing.T) {
	// A local transfer lands chunk by chunk: halfway through, the first
	// half of the destination is filled and the tail is still zero.
	f := newEngine(t, ModePaired, nil)
	const size = 16384 // 4 chunks; ~328µs at 100 MB/s
	f.fillSrc(0x10000, size, 0x5d)
	f.e.Store(0, f.e.cfg.Shadow(0x40000, 0), phys.Size64, size)
	st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x10000, 0), phys.Size64)
	if st == StatusFailure {
		t.Fatal("initiation refused")
	}
	tr := f.e.LastTransfer()
	mid := tr.Start + (tr.End-tr.Start)/2
	f.events.RunUntil(mid)
	head, _ := f.mem.Read(0x40000, phys.Size64)
	tail, _ := f.mem.Read(0x40000+size-8, phys.Size64)
	if head == 0 {
		t.Fatal("no data visible at mid-transfer")
	}
	if tail != 0 {
		t.Fatal("tail already landed at mid-transfer")
	}
	if rem := tr.Remaining(mid); rem == 0 || rem >= size {
		t.Fatalf("mid-transfer remaining = %d", rem)
	}
	f.settle()
	f.expectMoved(t, 0x40000, size, 0x5d)
	if !tr.Done(tr.End) {
		t.Fatal("transfer not done at End")
	}
}

func TestTransferPicksUpLateSourceStores(t *testing.T) {
	// The engine reads each chunk when it streams it: a store to a
	// not-yet-read part of the source lands in the destination — which
	// is why clients must not touch in-flight buffers.
	f := newEngine(t, ModePaired, nil)
	const size = 16384
	f.fillSrc(0x10000, size, 0x11)
	f.e.Store(0, f.e.cfg.Shadow(0x40000, 0), phys.Size64, size)
	f.e.Load(0, f.e.cfg.Shadow(0x10000, 0), phys.Size64)
	tr := f.e.LastTransfer()
	// After the first chunk streams, rewrite the LAST chunk's source.
	firstChunkDone := tr.Start + (tr.End-tr.Start)/4
	f.events.RunUntil(firstChunkDone)
	f.mem.Fill(0x10000+size-4096, 4096, 0x99)
	f.settle()
	head, _ := f.mem.Read(0x40000, phys.Size64)
	tail, _ := f.mem.Read(0x40000+size-8, phys.Size64)
	if byte(head) != 0x11 {
		t.Fatalf("head = %#x, want the original bytes", head)
	}
	if byte(tail) != 0x99 {
		t.Fatalf("tail = %#x, want the late store's bytes", tail)
	}
}

// --- remote transfers ---

type fakeRemote struct {
	node int
	addr phys.Addr
	data []byte
	at   sim.Time
	n    int
}

func (r *fakeRemote) Deliver(node int, addr phys.Addr, data []byte, at sim.Time) error {
	// Deliver must not retain data (the engine reuses the buffer), so
	// keep a copy for the assertions.
	r.node, r.addr, r.at = node, addr, at
	r.data = append(r.data[:0], data...)
	r.n++
	return nil
}

func TestRemoteTransfer(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	rh := &fakeRemote{}
	f.e.SetRemoteHandler(rh)
	f.fillSrc(0x1000, 128, 0xab)
	// Destination: node 3, remote offset 0x4000.
	dst := remoteBase + phys.Addr(3<<20) + 0x4000
	f.e.Store(0, f.e.cfg.Shadow(dst, 0), phys.Size64, 128)
	st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	if st == StatusFailure {
		t.Fatal("remote transfer rejected")
	}
	f.settle()
	if rh.n != 1 || rh.node != 3 || rh.addr != 0x4000 || len(rh.data) != 128 || rh.data[0] != 0xab {
		t.Fatalf("delivery = %+v", rh)
	}
	if f.e.Counters().RemoteStarted != 1 {
		t.Fatal("remote start not counted")
	}
}

func TestRemoteWithoutHandlerRejected(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	dst := remoteBase + 0x4000
	f.e.Store(0, f.e.cfg.Shadow(dst, 0), phys.Size64, 64)
	st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64)
	if st != StatusFailure {
		t.Fatal("remote transfer accepted without fabric")
	}
}

// --- window classification ---

func TestAccessOutsideWindows(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	if _, _, err := f.e.Load(0, 0x123, phys.Size64); err == nil {
		t.Fatal("stray load accepted")
	}
	if _, err := f.e.Store(0, 0x123, phys.Size64, 1); err == nil {
		t.Fatal("stray store accepted")
	}
	if f.e.Name() == "" {
		t.Fatal("engine must have a name")
	}
}

func TestWindowBoundaries(t *testing.T) {
	// First and last byte of each window decode to it; one past does not.
	f := newEngine(t, ModeKeyed, nil)
	cfg := f.e.cfg
	cases := []struct {
		name string
		base phys.Addr
		size uint64
	}{
		{"shadow", cfg.ShadowBase, cfg.ShadowWindowSize()},
		{"ctx", cfg.CtxPageBase, cfg.CtxWindowSize()},
		{"control", cfg.ControlBase, cfg.PageSize},
		{"atomic", cfg.AtomicBase, cfg.AtomicWindowSize()},
	}
	for _, c := range cases {
		if got := cfg.WindowOf(c.base); got != c.name {
			t.Errorf("%s first byte classified %q", c.name, got)
		}
		if got := cfg.WindowOf(c.base + phys.Addr(c.size) - 1); got != c.name {
			t.Errorf("%s last byte classified %q", c.name, got)
		}
		if got := cfg.WindowOf(c.base + phys.Addr(c.size)); got == c.name {
			t.Errorf("%s end+1 still classified %q", c.name, got)
		}
	}
}

// TestWindowOfNames: addresses inside each engine window are named for
// it (the annotation dmabench -trace prints), plain memory for none.
func TestWindowOfNames(t *testing.T) {
	cfg := testConfig(ModeKeyed)
	cases := []struct {
		addr phys.Addr
		want string
	}{
		{cfg.ShadowBase + 8, "shadow"},
		{cfg.CtxPage(1), "ctx"},
		{cfg.ControlBase, "control"},
		{cfg.AtomicShadow(0x40, AtomicAdd), "atomic"},
		{cfg.RemoteAddr(1, 0x100), "remote"},
		{0x1000, ""},
	}
	for _, c := range cases {
		if got := cfg.WindowOf(c.addr); got != c.want {
			t.Errorf("WindowOf(%v) = %q, want %q", c.addr, got, c.want)
		}
	}
}

func TestCtxWindowRangeErrors(t *testing.T) {
	f := newEngine(t, ModeKeyed, nil)
	// The last valid ctx page works; decode guards reject impossible
	// offsets (defensive: the bus window normally prevents these).
	last := f.e.cfg.CtxPage(f.e.NumContexts() - 1)
	if _, err := f.e.Store(0, last, phys.Size64, 1); err != nil {
		t.Fatalf("last ctx page store: %v", err)
	}
	if _, _, err := f.e.Load(0, last, phys.Size64); err != nil {
		t.Fatalf("last ctx page load: %v", err)
	}
}

func TestContextTransferAccessor(t *testing.T) {
	f := newEngine(t, ModeExtended, nil)
	if f.e.ContextTransfer(0) != nil || f.e.ContextTransfer(-1) != nil || f.e.ContextTransfer(99) != nil {
		t.Fatal("empty/out-of-range contexts must report nil")
	}
	f.fillSrc(0x2000, 64, 1)
	f.e.Store(0, f.e.cfg.Shadow(0xa000, 2), phys.Size64, 64)
	f.e.Load(0, f.e.cfg.Shadow(0x2000, 2), phys.Size64)
	if tr := f.e.ContextTransfer(2); tr == nil || tr.Size != 64 {
		t.Fatalf("context 2 transfer = %+v", tr)
	}
	if f.e.ContextTransfer(1) != nil {
		t.Fatal("unused context reports a transfer")
	}
}

func TestShadowEncodeMasksHighBits(t *testing.T) {
	// Addresses above the encodable span are masked into it — the bus
	// window guarantees this in a real system; Shadow() must agree.
	cfg := testConfig(ModePaired)
	if cfg.Shadow(phys.Addr(1)<<40|0x1234, 0) != cfg.Shadow(0x1234, 0) {
		t.Fatal("Shadow did not mask high bits")
	}
	if cfg.AtomicShadow(phys.Addr(1)<<40|0x40, AtomicAdd) != cfg.AtomicShadow(0x40, AtomicAdd) {
		t.Fatal("AtomicShadow did not mask high bits")
	}
}

func TestCheckInvariants(t *testing.T) {
	f := newEngine(t, ModePaired, nil)
	f.fillSrc(0x1000, 4096, 1)
	for i := 0; i < 3; i++ {
		f.e.Store(0, f.e.cfg.Shadow(0x8000, 0), phys.Size64, 512)
		if st, _, _ := f.e.Load(0, f.e.cfg.Shadow(0x1000, 0), phys.Size64); st == StatusFailure {
			t.Fatal("initiation refused")
		}
	}
	end := f.settle()
	if err := f.e.CheckInvariants(end); err != nil {
		t.Fatal(err)
	}
	// Mid-flight check must also hold (nothing delivered yet counts).
	f2 := newEngine(t, ModePaired, nil)
	f2.fillSrc(0x1000, 64, 1)
	f2.e.Store(0, f2.e.cfg.Shadow(0x8000, 0), phys.Size64, 64)
	f2.e.Load(0, f2.e.cfg.Shadow(0x1000, 0), phys.Size64)
	if err := f2.e.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}
