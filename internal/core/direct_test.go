package userdma

import (
	"errors"
	"testing"

	"uldma/internal/proc"
)

// initiation is what one initiation returned and what the engine
// counted for it.
type initiation struct {
	status            uint64
	err               string
	exhausted         bool
	rejected, started uint64
}

// TestDirectMatchesScheduled initiates once through DMA in a guest and
// once through DirectDMA on a twin world, for every method with a
// hosted path, accepted (size 0) and refused (past the end of memory):
// both paths must return the same status and error and make the engine
// start and reject the same number of attempts.
func TestDirectMatchesScheduled(t *testing.T) {
	var methods []Method
	for _, m := range AllMethods() {
		if _, pal := m.(PALCode); !pal {
			methods = append(methods, m)
		}
	}
	methods = append(methods, ExtShadow{NoContexts: true})
	for _, method := range methods {
		for _, tc := range []struct {
			name   string
			size   uint64
			accept bool
		}{{"accepted", 0, true}, {"refused", 1 << 40, false}} {
			t.Run(method.Name()+"/"+tc.name, func(t *testing.T) {
				sched := initiateOnce(t, method, tc.size, false)
				direct := initiateOnce(t, method, tc.size, true)
				if accepted := sched.status != StatusFailure; accepted != tc.accept {
					t.Fatalf("scheduled initiation accepted = %v, want %v (%+v)", accepted, tc.accept, sched)
				}
				if direct != sched {
					t.Fatalf("DirectDMA %+v, DMA %+v", direct, sched)
				}
			})
		}
	}
}

// initiateOnce builds the standard world for method and initiates size
// bytes from srcVA to dstVA once: through DMA in the guest, or with
// direct through DirectDMA with no scheduler run at all.
func initiateOnce(t *testing.T, method Method, size uint64, direct bool) initiation {
	t.Helper()
	w := newWorld(t, method)
	if s1, ok := method.(SHRIMP1); ok {
		if err := s1.MapOutPage(w.m, w.p, srcVA, w.dstFrame); err != nil {
			t.Fatal(err)
		}
	}
	var got initiation
	var err error
	if direct {
		got.status, err = w.h.DirectDMA(&DirectCPU{M: w.m, P: w.p}, srcVA, dstVA, size)
	} else {
		w.run(t, func(c *proc.Context) error {
			got.status, err = w.h.DMA(c, srcVA, dstVA, size)
			return nil
		})
	}
	if err != nil {
		got.err = err.Error()
	}
	got.exhausted = errors.Is(err, ErrRetriesExhausted)
	ctr := w.m.Engine.Counters()
	got.rejected, got.started = ctr.Rejected.Value(), ctr.Started.Value()
	return got
}
