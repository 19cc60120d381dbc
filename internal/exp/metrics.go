package exp

// The "metrics" experiment: the observability registry as a benchmark
// section. One calibrated Table-1 world per method runs a fixed
// initiation burst, then every registered metric (cpu.*, tlb.*, bus.*,
// wb.*, phys.*, dma.*, proc.*, kernel.*) is snapshotted. The values are
// exact event counts of a deterministic world, so cmd/benchdiff can
// diff them like the timing leaves: any delta is a behavioural change,
// and a metric present on only one side reads as added/removed.

import (
	"fmt"

	userdma "uldma/internal/core"
	"uldma/internal/machine"
	"uldma/internal/obs"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

func init() {
	Register(&Experiment{
		Name:  "metrics",
		Doc:   "observability registry snapshot per Table 1 method after a fixed initiation burst (JSON only)",
		Cells: metricsCells,
		JSON:  metricsJSON,
	})
}

// metricsCells runs p.Iters 64-byte DMA initiations in each Table-1
// method's world; each cell observes every registered metric. Each
// world owns its registry, so the section is byte-identical for any
// -procs value.
func metricsCells(p Params) ([]Cell, error) {
	methods := userdma.Methods()
	cells := make([]Cell, len(methods))
	for i, method := range methods {
		method := method
		cells[i] = Cell{Method: method.Name(), Run: func() (Obs, bool, error) {
			mv, err := methodMetrics(method, p.Iters)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", method.Name(), err)
			}
			return Obs{mv}, false, nil
		}}
	}
	return cells, nil
}

func metricsJSON(r *Result, _ Params, d *Doc) {
	d.Metrics = make(map[string][]obs.MetricValue, len(r.Cells))
	for _, c := range r.Cells {
		d.Metrics[c.Cell.Method] = c.Obs[0].([]obs.MetricValue)
	}
}

func methodMetrics(method userdma.Method, iters int) ([]obs.MetricValue, error) {
	m := userdma.Machine(method)
	if err := dmaBurst(m, method, "metrics", iters); err != nil {
		return nil, err
	}
	return m.Obs.Snapshot(), nil
}

// dmaBurst runs n 64-byte DMAs between two fresh pages as process name
// in method's world m, then settles the engine.
func dmaBurst(m *machine.Machine, method userdma.Method, name string, n int) error {
	var h *userdma.Handle
	const src, dst = vm.VAddr(0x10000), vm.VAddr(0x20000)
	p := m.NewProcess(name, func(c *proc.Context) error {
		for i := 0; i < n; i++ {
			if _, err := h.DMA(c, src, dst, 64); err != nil {
				return err
			}
		}
		return nil
	})
	var err error
	if h, err = method.Attach(m, p); err != nil {
		return err
	}
	if _, err := m.SetupPages(p, src, 1, vm.Read|vm.Write); err != nil {
		return err
	}
	if _, err := m.SetupPages(p, dst, 1, vm.Read|vm.Write); err != nil {
		return err
	}
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		return err
	}
	if p.Err() != nil {
		return p.Err()
	}
	m.Settle()
	return nil
}
