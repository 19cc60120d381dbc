package msg

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"uldma/internal/proc"
)

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
