package dma

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// TestDecodeVersionCoversHash: DecodeVersion versions exactly what a
// device access decodes against. In every engine mode, seeded streams
// of shadow, VA-window, register-context, control and ring accesses,
// mapped-out exchanges, the kernel hooks (AbortPending,
// SetCurrentPID, SetupRing, TeardownRing, RingAllow), Snapshot/Restore
// and event delivery (ring completions) run against an engine with an
// IOMMU and descriptor rings; after each step an unchanged version
// must mean an unchanged decode hash (stateHash(false)). A status read
// — a control-page load, a register-context load with no full argument
// set, an extended-mode shadow load with no half-initiation — must
// leave the version alone.
func TestDecodeVersionCoversHash(t *testing.T) {
	modes := []struct {
		name string
		mode Mode
		mut  func(*Config)
	}{
		{"paired", ModePaired, nil},
		{"keyed", ModeKeyed, nil},
		{"extended", ModeExtended, nil},
		{"extended-noregs", ModeExtended, func(c *Config) { c.NoRegContexts = true }},
		{"repeated3", ModeRepeated, func(c *Config) { c.SeqLen = 3 }},
		{"repeated4", ModeRepeated, func(c *Config) { c.SeqLen = 4 }},
		{"repeated5", ModeRepeated, nil},
		{"mapped-out", ModeMappedOut, nil},
	}
	for _, mc := range modes {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mc.name, seed), func(t *testing.T) {
				runDecodeVersionStream(t, mc.mode, mc.mut, seed)
			})
		}
	}
}

func runDecodeVersionStream(t *testing.T, mode Mode, mut func(*Config), seed uint64) {
	f := newVAEngine(t, mode, func(c *Config) {
		c.RingBase = ringBase
		if mut != nil {
			mut(c)
		}
	})
	e, cfg := f.e, f.e.Config()
	f.mapVA(t, 0, 1)
	f.mapVA(t, 1, 1)
	f.e.SetPIDTracking(seed%2 == 0) // FLASH tracking on half the streams
	for ctx := 0; ctx < e.NumContexts(); ctx++ {
		if err := e.SetKey(ctx, 0x1000+uint64(ctx)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.MapOut(ringSrc, ringDst); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(mode)))
	pick := func(xs ...uint64) uint64 { return xs[rng.IntN(len(xs))] }
	pas := []uint64{uint64(ringSrc), uint64(ringDst), uint64(ringSrc) + 64, uint64(ringDst) + 128}
	vas := []uint64{vaSrcVA, vaDstVA, vaSrcVA + 64}
	var (
		now  sim.Time
		snap *EngineSnapshot
	)
	for step := 0; step < 1500; step++ {
		ctx := rng.IntN(e.NumContexts())
		pa := phys.Addr(pick(pas...))
		size := pick(0, 8, 64, 512, 1<<30)
		var word uint64 // a keyed store's key#ctx word, or a size
		if mode == ModeKeyed {
			key := 0x1000 + uint64(ctx)
			if rng.IntN(8) == 0 {
				key++ // a wrong key: dropped
			}
			word = PackKey(key, ctx)
		} else {
			word = size
		}
		statusRead := false
		var what string
		before, hash := e.DecodeVersion(), e.stateHash(false)
		switch op := rng.IntN(22); op {
		case 0, 1, 2:
			what = fmt.Sprintf("shadow store ctx %d %v", ctx, pa)
			_, _ = e.Store(now, cfg.Shadow(pa, ctx), phys.Size64, word)
		case 3, 4, 5:
			c := ctx % len(e.ctxs)
			statusRead = mode == ModeExtended && !cfg.NoRegContexts && !(e.ctxs[c].haveDst && e.ctxs[c].haveSize)
			what = fmt.Sprintf("shadow load ctx %d %v", ctx, pa)
			_, _, _ = e.Load(now, cfg.Shadow(pa, ctx), phys.Size64)
		case 6, 7:
			vctx := rng.IntN(2)
			what = fmt.Sprintf("VA store ctx %d", vctx)
			_, _ = e.Store(now, vaOff(vctx, pick(vas...)), phys.Size64, word)
		case 8, 9:
			vctx := rng.IntN(2)
			what = fmt.Sprintf("VA load ctx %d", vctx)
			_, _, _ = e.Load(now, vaOff(vctx, pick(vas...)), phys.Size64)
		case 10:
			what = fmt.Sprintf("ctx store %d", ctx)
			_, _ = e.Store(now, cfg.CtxPage(ctx)+8, phys.Size64, size)
		case 11:
			c := &e.ctxs[ctx]
			statusRead = !(c.haveDst && c.haveSrc && c.haveSize)
			what = fmt.Sprintf("ctx load %d", ctx)
			_, _, _ = e.Load(now, cfg.CtxPage(ctx), phys.Size64)
		case 12:
			reg := pick(RegSource, RegDest, RegSize, RegPID, RegAbort)
			val := uint64(pa)
			switch reg {
			case RegSize:
				val = size
			case RegPID:
				val = uint64(rng.IntN(3))
			}
			what = fmt.Sprintf("control store %#x = %#x", reg, val)
			_, _ = e.Store(now, controlBase+phys.Addr(reg), phys.Size64, val)
		case 13:
			statusRead = true
			reg := pick(RegSource, RegDest, RegStatus, RegPID, RegLastSt, RegStarted)
			what = fmt.Sprintf("control load %#x", reg)
			_, _, _ = e.Load(now, controlBase+phys.Addr(reg), phys.Size64)
		case 14:
			what = "mapped-out exchange"
			_, _, _ = e.RMW(now, cfg.Shadow(pa, 0), phys.Size64, size%testPageSize)
		case 15:
			what = "AbortPending"
			e.AbortPending()
		case 16:
			pid := rng.IntN(3)
			what = fmt.Sprintf("SetCurrentPID(%d)", pid)
			e.SetCurrentPID(pid)
		case 17:
			switch rng.IntN(3) {
			case 0:
				what = fmt.Sprintf("SetupRing(%d)", ctx)
				_ = e.SetupRing(ctx, ringDescs+phys.Addr(ctx)*testPageSize, pick(1, 2, 4))
			case 1:
				what = fmt.Sprintf("TeardownRing(%d)", ctx)
				e.TeardownRing(ctx)
			default:
				what = fmt.Sprintf("RingAllow(%d)", ctx)
				_ = e.RingAllow(ctx, pa&^(testPageSize-1), ringBufSize)
			}
		case 18:
			// Post a descriptor in the next slot and ring the doorbell.
			base, depth, head, _ := e.RingState(ctx)
			if depth > 0 {
				slot := base + phys.Addr(head*DescBytes)
				for off, v := range map[phys.Addr]uint64{DescSrc: uint64(pa), DescDst: pick(pas...), DescSize: size % testPageSize} {
					if err := f.mem.Write(slot+off, phys.Size64, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			n := pick(0, 1, 2)
			if mode == ModeKeyed {
				n = PackKey(0x1000+uint64(ctx), int(n))
			}
			what = fmt.Sprintf("doorbell %d", ctx)
			_, _ = e.Store(now, cfg.RingPage(ctx), phys.Size64, n)
		case 19:
			statusRead = true
			what = fmt.Sprintf("ring load %d", ctx)
			_, _, _ = e.Load(now, cfg.RingPage(ctx), phys.Size64)
		case 20:
			if snap == nil || rng.IntN(2) == 0 {
				what = "snapshot"
				var err error
				if snap, err = e.Snapshot(); err != nil {
					snap = nil // not quiescent: a fix-up is out
				}
			} else {
				what = "restore"
				if err := e.Restore(snap); err != nil {
					t.Fatal(err)
				}
			}
		case 21:
			now += sim.Time(rng.IntN(200)) * sim.Microsecond
			what = fmt.Sprintf("events to %v", now)
			f.events.RunUntil(now)
			e.ResumeFaulted(ctx, now)
		}
		after := e.DecodeVersion()
		if after == before && e.stateHash(false) != hash {
			t.Fatalf("step %d (%s): decode state changed, version stayed %d", step, what, before)
		}
		if statusRead && after != before {
			t.Fatalf("step %d (%s): a status read moved the version %d -> %d", step, what, before, after)
		}
	}
}
