package userdma

import (
	"fmt"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/dma/dmatest"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// This file verifies the paper's atomicity claims by EXHAUSTIVE
// interleaving enumeration (bounded model checking via proc.Explore),
// not sampling:
//
//   - §3.1 (key-based) and §3.2 (extended shadow): two processes
//     initiating concurrently succeed under EVERY schedule, wait-free —
//     their register contexts make interleaving harmless.
//   - §2.5 (SHRIMP-2 without the kernel hook): the explorer FINDS the
//     misdirection counterexample, demonstrating both the race and the
//     explorer's power.

// twoDMAFactory builds a world with two processes, each performing one
// DMA between its own pages, and a Check that asserts every transfer the
// engine started matches a legal (src, dst) pair and that the statuses
// meet wantSuccess.
func twoDMAFactory(t *testing.T, method Method, wantSuccess bool) proc.WorldFactory {
	t.Helper()
	return func() (*proc.World, error) {
		m := Machine(method)
		accepted := dmatest.Accepted(m.Engine)
		type job struct {
			h      *Handle
			srcF   phys.Addr
			dstF   phys.Addr
			status uint64
			err    error
		}
		jobs := make([]*job, 2)
		for i := 0; i < 2; i++ {
			j := &job{}
			jobs[i] = j
			p := m.NewProcess(fmt.Sprintf("p%d", i), func(c *proc.Context) error {
				j.status, j.err = j.h.DMA(c, srcVA, dstVA, 64)
				return nil
			})
			h, err := method.Attach(m, p)
			if err != nil {
				return nil, err
			}
			j.h = h
			frames, err := m.SetupPages(p, srcVA, 1, vm.Read|vm.Write)
			if err != nil {
				return nil, err
			}
			j.srcF = frames[0]
			frames, err = m.SetupPages(p, dstVA, 1, vm.Read|vm.Write)
			if err != nil {
				return nil, err
			}
			j.dstF = frames[0]
		}
		check := func() error {
			legal := map[[2]phys.Addr]bool{}
			for _, j := range jobs {
				legal[[2]phys.Addr{j.srcF, j.dstF}] = true
			}
			ps := phys.Addr(m.Cfg.PageSize)
			for _, tr := range *accepted {
				pair := [2]phys.Addr{tr.Src &^ (ps - 1), tr.Dst &^ (ps - 1)}
				if !legal[pair] {
					return fmt.Errorf("misdirected transfer %v->%v", tr.Src, tr.Dst)
				}
			}
			if wantSuccess {
				for i, j := range jobs {
					if j.err != nil {
						return fmt.Errorf("p%d error: %w", i, j.err)
					}
					if j.status == dma.StatusFailure {
						return fmt.Errorf("p%d initiation refused", i)
					}
				}
				if len(*accepted) != 2 {
					return fmt.Errorf("%d transfers started, want 2", len(*accepted))
				}
			}
			return nil
		}
		return &proc.World{Runner: m.Runner, Check: check}, nil
	}
}

// TestKeyedExhaustivelyAtomic: the keyed sequence is 4 accesses + 1
// barrier = 5 slots per process (plus a completion grant each). Every
// interleaving of the two initiations must succeed with both transfers
// intact — no retries, no kernel hook.
func TestKeyedExhaustivelyAtomic(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short mode")
	}
	res, err := proc.Explore(twoDMAFactory(t, KeyBased{}, true), 12, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("schedule %v broke the keyed method: %v",
			res.Counterexample, res.CounterexampleErr)
	}
	if res.Schedules < 900 { // C(12,6) = 924 full-depth merges
		t.Fatalf("only %d schedules explored", res.Schedules)
	}
	t.Logf("keyed: %d schedules, all atomic", res.Schedules)
}

// TestExtShadowExhaustivelyAtomic: 2 accesses + completion = 3 slots per
// process; C(6,3) = 20 merges, every one must succeed.
func TestExtShadowExhaustivelyAtomic(t *testing.T) {
	res, err := proc.Explore(twoDMAFactory(t, ExtShadow{}, true), 6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("schedule %v broke extended shadow addressing: %v",
			res.Counterexample, res.CounterexampleErr)
	}
	if res.Schedules != 20 {
		t.Fatalf("schedules = %d, want C(6,3)=20", res.Schedules)
	}
}

// TestPALExhaustivelyAtomic: the PAL call is a single uninterruptible
// slot; 2 processes × (1 call + completion) = C(4,2) = 6 merges.
func TestPALExhaustivelyAtomic(t *testing.T) {
	res, err := proc.Explore(twoDMAFactory(t, PALCode{}, true), 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("schedule %v broke the PAL method: %v",
			res.Counterexample, res.CounterexampleErr)
	}
	if res.Schedules != 6 {
		t.Fatalf("schedules = %d, want C(4,2)=6", res.Schedules)
	}
}

// TestSHRIMP2CounterexampleFound: without the kernel hook, some
// interleaving misdirects a transfer — the explorer must find it. (One
// attempt, no retry: MaxRetries 1.)
func TestSHRIMP2CounterexampleFound(t *testing.T) {
	method := SHRIMP2{WithKernelMod: false, MaxRetries: 1}
	res, err := proc.Explore(twoDMAFactory(t, method, false), 6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatalf("no misdirection found in %d schedules — the §2.5 race should exist", res.Schedules)
	}
	t.Logf("SHRIMP-2 race found at schedule %v: %v", res.Counterexample, res.CounterexampleErr)
}

// TestSHRIMP2WithHookExhaustivelySafe: with the kernel modification, no
// interleaving misdirects (initiations may fail and would be retried,
// so wantSuccess is false — safety only).
func TestSHRIMP2WithHookExhaustivelySafe(t *testing.T) {
	method := SHRIMP2{WithKernelMod: true, MaxRetries: 4}
	res, err := proc.Explore(twoDMAFactory(t, method, false), 8, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("schedule %v misdirected despite the kernel hook: %v",
			res.Counterexample, res.CounterexampleErr)
	}
	t.Logf("SHRIMP-2 with hook: %d schedules, all safe", res.Schedules)
}
