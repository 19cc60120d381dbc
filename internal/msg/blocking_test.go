package msg

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"uldma/internal/proc"
)

// TestSendBlockingWakesOncePerCredit pins the sender-side blocking
// bookkeeping: with a ring kept full by a slow receiver, a sender
// inside SendBlocking traps at most once per credit write (the wakeup
// IS the credit's receive interrupt — there is nothing else to wake
// on), instead of busy-looping the event queue.
func TestSendBlockingWakesOncePerCredit(t *testing.T) {
	w := newChannelWorld(t, Config{Slots: 2, SlotPayload: 64})
	const total = 10
	w.sendBody = func(c *proc.Context, tx *Sender) error {
		for i := 0; i < total; i++ {
			if err := tx.SendBlocking(c, []byte(fmt.Sprintf("blk-%02d", i))); err != nil {
				return err
			}
		}
		return nil
	}
	var got []string
	w.recvBody = func(c *proc.Context, rx *Receiver) error {
		buf := make([]byte, 64)
		for i := 0; i < total; i++ {
			// Drag our feet so the ring fills and the sender must block.
			for k := 0; k < 20; k++ {
				c.Spin(2000)
			}
			n, err := rx.Recv(c, buf)
			if err != nil {
				return err
			}
			got = append(got, string(buf[:n]))
		}
		return nil
	}
	w.run(t)
	for i, s := range got {
		if s != fmt.Sprintf("blk-%02d", i) {
			t.Fatalf("message %d = %q", i, s)
		}
	}
	stalls := w.tx.Counters().FlowStalls
	traps := w.cluster.Nodes[0].Kernel.Counters().Syscalls
	if stalls == 0 || traps == 0 {
		t.Fatalf("ring never filled (stalls=%d traps=%d) — blocking path not exercised", stalls, traps)
	}
	// Exactly one trap per stall iteration, and each wakeup is caused by
	// a credit write: the receiver wrote `total` credits, so the sender
	// cannot have woken more often than that.
	if traps != stalls {
		t.Fatalf("traps=%d stalls=%d — SendBlocking slept a different number of times than it stalled", traps, stalls)
	}
	if traps > total {
		t.Fatalf("traps=%d for %d credit writes — more than one wakeup per credit", traps, total)
	}
	// A blocked sender burns (almost) no CPU relative to the wall time
	// it covered — the opposite of a poll loop.
	if cpu := w.sender.CPUTime(); cpu*2 > w.cluster.Clock.Now() {
		t.Fatalf("sender CPU %v vs wall %v — did it spin?", cpu, w.cluster.Clock.Now())
	}
}

// mallocsForStream runs a fresh channel world pushing `total` messages
// and returns the host allocations the run performed.
func mallocsForStream(t *testing.T, total int) uint64 {
	t.Helper()
	w := newChannelWorld(t, Config{Slots: 4, SlotPayload: 64})
	payload := bytes.Repeat([]byte{0xab}, 64)
	w.sendBody = func(c *proc.Context, tx *Sender) error {
		for i := 0; i < total; i++ {
			if err := tx.Send(c, payload); err != nil {
				return err
			}
		}
		return nil
	}
	w.recvBody = func(c *proc.Context, rx *Receiver) error {
		buf := make([]byte, 64)
		for i := 0; i < total; i++ {
			if _, err := rx.Recv(c, buf); err != nil {
				return err
			}
		}
		return nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.run(t)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSendSteadyStateZeroAllocs asserts the steady-state send path is
// allocation-free on the host: the MARGINAL allocations per extra
// message — comparing a short stream against a 4x longer one on
// identical worlds, so setup and warmup cancel — must be ~0. (The send
// path is guest code interleaved across goroutines, so
// testing.AllocsPerRun cannot frame it; the world-level delta can.)
func TestSendSteadyStateZeroAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const small, big = 16, 64
	a := mallocsForStream(t, small)
	b := mallocsForStream(t, big)
	extra := int64(b) - int64(a)
	perMsg := float64(extra) / float64(big-small)
	if perMsg > 0.5 {
		t.Fatalf("steady-state send path allocates: %d extra mallocs over %d extra messages (%.2f/msg, want 0)",
			extra, big-small, perMsg)
	}
}
