package exp

// The wire-level view behind dmabench -trace: one initiation per
// method, recorded on the bus tracer, listed with the engine window
// each address decodes to — what the engine actually saw, in order.

import (
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

func init() {
	Register(&Experiment{
		Name:   "bustrace",
		Doc:    "bus transactions of one 64-byte initiation per method, annotated with engine windows",
		Cells:  busTraceCells,
		Render: map[Format]RenderFunc{Text: busTraceText},
	})
}

// busTraceCells: one world per method; each observes its listing as a
// string ("" when the initiation never touched the bus).
func busTraceCells(Params) ([]Cell, error) {
	methods := userdma.AllMethods()
	cells := make([]Cell, len(methods))
	for i, method := range methods {
		method := method
		cells[i] = Cell{Method: method.Name(), Run: func() (Obs, bool, error) {
			s, err := busTrace(method)
			return Obs{s}, false, err
		}}
	}
	return cells, nil
}

func busTrace(method userdma.Method) (string, error) {
	m := userdma.Machine(method)
	tr := obs.NewTrace(64, obs.DropNewest)

	var h *userdma.Handle
	p := m.NewProcess("traced", func(c *proc.Context) error {
		m.Bus.SetTracer(tr, 0)
		_, err := h.DMA(c, 0x10000, 0x20000, 64)
		m.Bus.SetTracer(nil, 0)
		return err
	})
	var err error
	if h, err = method.Attach(m, p); err != nil {
		return "", err
	}
	if _, err := m.SetupPages(p, 0x10000, 1, vm.Read|vm.Write); err != nil {
		return "", err
	}
	dstFrames, err := m.SetupPages(p, 0x20000, 1, vm.Read|vm.Write)
	if err != nil {
		return "", err
	}
	if s1, ok := method.(userdma.SHRIMP1); ok {
		if err := s1.MapOutPage(m, p, 0x10000, dstFrames[0]); err != nil {
			return "", err
		}
	}
	if err := m.Run(proc.NewRoundRobin(64), 100_000); err != nil {
		return "", err
	}
	if p.Err() != nil {
		return "", fmt.Errorf("%s: %w", method.Name(), p.Err())
	}
	return renderBusTrace(tr, m.Engine.Config().WindowOf), nil
}

// renderBusTrace formats tr's bus transactions as a timeline, one per
// line, each annotated with the engine window its address decodes to.
func renderBusTrace(tr *obs.Trace, windowOf func(phys.Addr) string) string {
	var b strings.Builder
	for _, e := range tr.Events() {
		if e.Cat != obs.CatBus {
			continue
		}
		win := windowOf(phys.Addr(e.A0))
		if win == "" {
			win = "-"
		}
		fmt.Fprintf(&b, "%-10v %-5s %-8s %v = %#x\n", e.At, e.Name, win, phys.Addr(e.A0), e.A2)
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(&b, "... %d further events dropped (recorder full)\n", d)
	}
	return b.String()
}

func busTraceText(r *Result, _ Params) string {
	var b strings.Builder
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%s — bus transactions of one DMA(src, dst, 64):\n", c.Cell.Method)
		listing := c.Obs[0].(string)
		if listing == "" {
			listing = "  (no bus traffic: the initiation ran inside the kernel/PAL call below)\n"
		}
		b.WriteString(listing)
		b.WriteByte('\n')
	}
	return b.String()
}
