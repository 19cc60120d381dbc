package userdma

import (
	"errors"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// TestKeyedNeedsWritableSource verifies the limitation §3.1 calls out:
// "both address arguments are passed using store instructions ... only
// processes that have both read and write access to the source address
// will be able to do user-level DMA operations from it". A read-only
// source faults the keyed sequence, while extended shadow addressing
// (which passes the source with a LOAD) works fine.
func TestKeyedNeedsWritableSource(t *testing.T) {
	build := func(method Method) (*world, *vm.Fault, uint64) {
		w := &world{m: Machine(method)}
		w.p = w.m.NewProcess("user", func(c *proc.Context) error { return w.body(c) })
		h, err := method.Attach(w.m, w.p)
		if err != nil {
			t.Fatal(err)
		}
		w.h = h
		// Read-only source page, writable destination page.
		frames, err := w.m.SetupPages(w.p, srcVA, 1, vm.Read)
		if err != nil {
			t.Fatal(err)
		}
		w.srcFrame = frames[0]
		frames, err = w.m.SetupPages(w.p, dstVA, 1, vm.Read|vm.Write)
		if err != nil {
			t.Fatal(err)
		}
		w.dstFrame = frames[0]
		var fault *vm.Fault
		var status uint64
		w.body = func(c *proc.Context) error {
			st, err := w.h.DMA(c, srcVA, dstVA, 64)
			status = st
			if err != nil {
				errors.As(err, &fault)
			}
			return nil
		}
		if err := w.m.Run(proc.NewRoundRobin(8), 100_000); err != nil {
			t.Fatal(err)
		}
		return w, fault, status
	}

	// Keyed: the source-passing STORE needs write rights — fault.
	_, fault, _ := build(KeyBased{})
	if fault == nil || fault.Kind != vm.FaultProtection {
		t.Fatalf("keyed DMA from read-only source: fault=%v", fault)
	}

	// Extended shadow: the source-passing LOAD needs only read — works.
	w, fault, status := build(ExtShadow{})
	if fault != nil {
		t.Fatalf("ext-shadow DMA from read-only source faulted: %v", fault)
	}
	if status == dma.StatusFailure {
		t.Fatal("ext-shadow DMA from read-only source refused")
	}
	if w.m.Engine.Counters().Started != 1 {
		t.Fatal("transfer did not start")
	}
}

// TestUnmappedShadowFaults: using a method without the setup-time
// shadow mapping faults at the TLB, never reaching the engine.
func TestUnmappedShadowFaults(t *testing.T) {
	method := ExtShadow{}
	m := Machine(method)
	var gotErr error
	p := m.NewProcess("user", func(c *proc.Context) error {
		_, gotErr = unmappedTestHandle.DMA(c, srcVA, dstVA, 64)
		return nil
	})
	var err error
	if unmappedTestHandle, err = method.Attach(m, p); err != nil {
		t.Fatal(err)
	}
	// Data pages exist, but NO MapShadow was done.
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), srcVA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), dstVA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(proc.NewRoundRobin(8), 100_000); err != nil {
		t.Fatal(err)
	}
	var fault *vm.Fault
	if !errors.As(gotErr, &fault) || fault.Kind != vm.FaultUnmapped {
		t.Fatalf("DMA without shadow mapping: %v", gotErr)
	}
	if m.Engine.Counters().Started != 0 {
		t.Fatal("engine started a transfer without shadow mappings")
	}
}

// unmappedTestHandle is shared by TestUnmappedShadowFaults' closure
// (assigned before Run grants the first slot).
var unmappedTestHandle *Handle

// TestOversizedTransferRefused: the engine validates the transfer range
// against physical memory; a huge size is refused with StatusFailure,
// not a crash.
func TestOversizedTransferRefused(t *testing.T) {
	for _, method := range []Method{ExtShadow{}, KeyBased{}} {
		w := newWorld(t, method)
		var status uint64
		w.run(t, func(c *proc.Context) error {
			st, err := w.h.DMA(c, srcVA, dstVA, 1<<40)
			status = st
			return err
		})
		if status != dma.StatusFailure {
			t.Fatalf("%s: oversized transfer accepted (%#x)", method.Name(), status)
		}
		if w.m.Engine.Counters().Started != 0 {
			t.Fatalf("%s: engine started an oversized transfer", method.Name())
		}
		if w.m.Engine.Counters().Rejected == 0 {
			t.Fatalf("%s: rejection not counted", method.Name())
		}
	}
}

// TestKernelDMAOversized: the kernel path catches the same problem even
// earlier, at check_size, and surfaces a fault.
func TestKernelDMAOversized(t *testing.T) {
	w := newWorld(t, KernelLevel{})
	var gotErr error
	var status uint64
	w.run(t, func(c *proc.Context) error {
		status, gotErr = w.h.DMA(c, srcVA, dstVA, 1<<30)
		return nil
	})
	var fault *vm.Fault
	if !errors.As(gotErr, &fault) || status != dma.StatusFailure {
		t.Fatalf("kernel oversized DMA: err=%v status=%#x", gotErr, status)
	}
}

// TestWaitSurfacesRefusal: Wait on a context whose initiation was
// refused reports the failure instead of spinning forever.
func TestWaitSurfacesRefusal(t *testing.T) {
	w := newWorld(t, KeyBased{})
	w.run(t, func(c *proc.Context) error {
		// Refused initiation (oversized), then Wait must not hang: the
		// context has no transfer, so Poll reports failure.
		st, err := w.h.DMA(c, srcVA, dstVA, 1<<40)
		if err != nil {
			return err
		}
		if st != dma.StatusFailure {
			t.Error("oversized accepted")
		}
		if err := w.h.Wait(c, 10); err == nil {
			t.Error("Wait after refusal returned success")
		}
		return nil
	})
}

// TestRetriesExhaustedSurfaces: a repeated-passing victim under a
// permanently hostile scripted scheduler gives up with
// ErrRetriesExhausted instead of spinning forever.
func TestRetriesExhaustedSurfaces(t *testing.T) {
	method := RepeatedPassing{Len: 5, Barriers: true, MaxRetries: 3}
	m := Machine(method)
	type job struct{ h *Handle }
	victim := &job{}
	vp := m.NewProcess("victim", func(c *proc.Context) error {
		_, err := victim.h.DMA(c, srcVA, dstVA, 64)
		if !errors.Is(err, ErrRetriesExhausted) {
			t.Errorf("victim error = %v, want retries exhausted", err)
		}
		return nil
	})
	hostile := m.NewProcess("hostile", func(c *proc.Context) error {
		for i := 0; i < 200; i++ {
			c.Store(shadow(srcVA), phys.Size64, 1) // constant FSM pollution
			c.MB()
		}
		return nil
	})
	var err error
	if victim.h, err = method.Attach(m, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SetupPages(vp, srcVA, 1, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SetupPages(vp, dstVA, 1, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SetupPages(hostile, srcVA, 1, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	// Strict alternation: every victim access is followed by pollution.
	if err := m.Run(proc.NewRoundRobin(1), 10_000); err != nil {
		t.Fatal(err)
	}
	if vp.Err() != nil {
		t.Fatal(vp.Err())
	}
}
