package userdma

import (
	"strings"
	"testing"

	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// busStream runs one DMA(src, dst, 64) of method with an obs trace
// attached to the bus for exactly that call, and returns the bus
// transactions it saw as an op string like "S L" (store, load, rmw =
// S, L, X) plus the engine window each access decoded to.
func busStream(t *testing.T, method Method) (string, []string) {
	t.Helper()
	m := Machine(method)
	tr := obs.NewTrace(64, obs.DropNewest)

	var h *Handle
	p := m.NewProcess("traced", func(c *proc.Context) error {
		m.Bus.SetTracer(tr, 0) // start recording at the first instruction
		_, err := h.DMA(c, 0x10000, 0x20000, 64)
		m.Bus.SetTracer(nil, 0)
		return err
	})
	var err error
	if h, err = method.Attach(m, p); err != nil {
		t.Fatal(err)
	}
	for _, va := range []vm.VAddr{0x10000, 0x20000} {
		if _, err := m.SetupPages(p, va, 1, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(proc.NewRoundRobin(8), 10_000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
	var ops, windows []string
	for _, e := range tr.Events() {
		if e.Cat != obs.CatBus {
			continue
		}
		ops = append(ops, map[string]string{"store": "S", "load": "L", "rmw": "X"}[e.Name])
		windows = append(windows, m.Engine.Config().WindowOf(phys.Addr(e.A0)))
	}
	return strings.Join(ops, " "), windows
}

// TestRecordsInitiationStream checks the exact bus stream an
// extended-shadow initiation emits: Figure 4 on the wire, one store
// then one load, both to the shadow window.
func TestRecordsInitiationStream(t *testing.T) {
	ops, windows := busStream(t, ExtShadow{})
	if ops != "S L" {
		t.Fatalf("bus stream = %q, want \"S L\"", ops)
	}
	for i, w := range windows {
		if w != "shadow" {
			t.Fatalf("access %d outside the shadow window: %q", i, w)
		}
	}
}

// TestKeyedStreamShape checks the keyed method's 4-access wire shape
// (three stores drain at the barrier, then the status load).
func TestKeyedStreamShape(t *testing.T) {
	ops, windows := busStream(t, KeyBased{})
	if ops != "S S S L" {
		t.Fatalf("bus stream = %q, want \"S S S L\"", ops)
	}
	if got, want := strings.Join(windows, ","), "shadow,shadow,ctx,ctx"; got != want {
		t.Fatalf("windows = %s, want %s", got, want)
	}
}
