package exp

// The lmbench-style OS-latency suite behind cmd/oslat, as an
// experiment: three independent worlds (syscall costs, context-switch
// cost, PAL/uncached/TLB microcosts) that fan out on the shared runner
// and fold into one ordered microbenchmark table. It validates the
// §2.2 premise ("the overhead of an empty system call ... ranges
// between 1,000 and 5,000 processor cycles") on the model.

import (
	"fmt"
	"strings"

	"uldma/internal/dma"
	"uldma/internal/kernel"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/stats"
	"uldma/internal/vm"
)

func init() {
	Register(&Experiment{
		Name:  "oslat",
		Doc:   "lmbench-style OS microbenchmarks: syscalls, context switch, PAL, uncached, TLB",
		Cells: oslatCells,
		Render: map[Format]RenderFunc{
			Text: oslatText,
		},
	})
}

func oslatCells(p Params) ([]Cell, error) {
	iters := p.Iters
	return []Cell{
		{Config: "syscalls", Run: func() (Obs, bool, error) { return oslatSyscalls(iters) }},
		{Config: "context switch", Run: func() (Obs, bool, error) { return oslatSwitch(iters) }},
		{Config: "micro", Run: func() (Obs, bool, error) { return oslatMicro(iters) }},
	}, nil
}

// oslatSyscalls measures null-syscall latency and the kernel DMA path
// broken into its Figure 1 components.
func oslatSyscalls(iters int) (Obs, bool, error) {
	cfg := machine.Alpha3000TC(dma.ModePaired, 0)
	m, err := machine.New(cfg)
	if err != nil {
		return nil, false, err
	}
	var nullSample, dmaSample stats.Sample
	p := m.NewProcess("lmbench", func(c *proc.Context) error {
		for i := 0; i < iters; i++ {
			start := m.Clock.Now()
			if _, err := c.Syscall(kernel.SysNull); err != nil {
				return err
			}
			nullSample.Add(m.Clock.Now() - start)
		}
		for i := 0; i < iters; i++ {
			start := m.Clock.Now()
			if _, err := c.Syscall(kernel.SysDMA, 0x10000, 0x20000, 64); err != nil {
				return err
			}
			dmaSample.Add(m.Clock.Now() - start)
		}
		return nil
	})
	m.Kernel.AllocPage(p.AddressSpace(), 0x10000, vm.Read|vm.Write)
	m.Kernel.AllocPage(p.AddressSpace(), 0x20000, vm.Read|vm.Write)
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		return nil, false, err
	}
	if p.Err() != nil {
		return nil, false, p.Err()
	}
	return Obs{
		Row{Name: "null syscall", Mean: nullSample.Mean()},
		Row{Name: "DMA syscall (Figure 1)", Mean: dmaSample.Mean()},
	}, false, nil
}

// oslatSwitch measures context-switch cost: two ping-ponging processes
// under quantum 1.
func oslatSwitch(iters int) (Obs, bool, error) {
	cfg := machine.Alpha3000TC(dma.ModePaired, 0)
	m2 := machine.MustNew(cfg)
	for i := 0; i < 2; i++ {
		m2.NewProcess("switcher", func(c *proc.Context) error {
			for k := 0; k < iters/10; k++ {
				c.Spin(1)
			}
			return nil
		})
	}
	if err := m2.Run(proc.NewRoundRobin(1), 1<<30); err != nil {
		return nil, false, err
	}
	switchMean := sim.Time(0)
	if s := m2.Runner.Counters(); s.Switches > 0 {
		switchMean = sim.Time(s.SwitchTime.Value()) / sim.Time(s.Switches.Value())
	}
	return Obs{Row{Name: "context switch", Mean: switchMean}}, false, nil
}

// oslatMicro measures PAL dispatch, uncached device access, and the
// TLB-miss penalty on a third world.
func oslatMicro(iters int) (Obs, bool, error) {
	cfg := machine.Alpha3000TC(dma.ModePaired, 0)
	m3 := machine.MustNew(cfg)
	m3.Kernel.InstallPALDMA()
	var palSample, uncachedSample, tlbMissPenalty stats.Sample
	p3 := m3.NewProcess("micro", func(c *proc.Context) error {
		// PAL call (includes its two uncached accesses).
		for i := 0; i < iters/10; i++ {
			start := m3.Clock.Now()
			if _, err := c.PALCall(kernel.PALUserDMA, 0x10000, 0x20000, 0); err != nil {
				return err
			}
			palSample.Add(m3.Clock.Now() - start)
		}
		// Single uncached load (engine control-status via shadow poll is
		// method-specific; use a shadow status read path: a store+load
		// pair minus the posted store is just the load).
		for i := 0; i < iters/10; i++ {
			start := m3.Clock.Now()
			if _, err := c.Load(kernel.ShadowVA(0x10000), phys.Size64); err != nil {
				return err
			}
			uncachedSample.Add(m3.Clock.Now() - start)
		}
		// TLB miss penalty: first touch of a fresh page vs a warm one.
		for i := 0; i < 16; i++ {
			va := vm.VAddr(0x40000 + uint64(i)*m3.Cfg.PageSize)
			start := m3.Clock.Now()
			if _, err := c.Load(va, phys.Size64); err != nil {
				return err
			}
			cold := m3.Clock.Now() - start
			start = m3.Clock.Now()
			if _, err := c.Load(va, phys.Size64); err != nil {
				return err
			}
			warm := m3.Clock.Now() - start
			tlbMissPenalty.Add(cold - warm)
		}
		return nil
	})
	m3.Kernel.AllocPage(p3.AddressSpace(), 0x10000, vm.Read|vm.Write)
	m3.Kernel.AllocPage(p3.AddressSpace(), 0x20000, vm.Read|vm.Write)
	m3.Kernel.MapShadow(p3, 0x10000)
	m3.Kernel.MapShadow(p3, 0x20000)
	for i := 0; i < 16; i++ {
		m3.Kernel.AllocPage(p3.AddressSpace(), vm.VAddr(0x40000+uint64(i)*m3.Cfg.PageSize), vm.Read)
	}
	if err := m3.Run(proc.NewRoundRobin(1<<20), 1<<62); err != nil {
		return nil, false, err
	}
	if p3.Err() != nil {
		return nil, false, p3.Err()
	}
	return Obs{
		Row{Name: "PAL user_level_dma call", Mean: palSample.Mean()},
		Row{Name: "uncached device load", Mean: uncachedSample.Mean()},
		Row{Name: "TLB miss penalty", Mean: tlbMissPenalty.Mean()},
	}, false, nil
}

// OSLatCycles returns the null-syscall cost of an oslat result in CPU
// cycles — the number the §2.2 lmbench band check (1,000–5,000) is
// about.
func OSLatCycles(r *Result) int64 {
	rows := Collect[Row](r)
	if len(rows) == 0 {
		return 0
	}
	return machine.Alpha3000TC(dma.ModePaired, 0).CPU.Freq.CyclesIn(rows[0].Mean)
}

// OSLatRow is one oslat benchmark as the tools emit it in JSON, with
// its cycle count on the testbed CPU clock the text renderer uses.
type OSLatRow struct {
	Benchmark string
	MeanPs    int64
	CPUCycles int64
}

// OSLatRows converts an oslat result into its JSON rows.
func OSLatRows(r *Result) []OSLatRow {
	freq := machine.Alpha3000TC(dma.ModePaired, 0).CPU.Freq
	var out []OSLatRow
	for _, row := range Collect[Row](r) {
		out = append(out, OSLatRow{Benchmark: row.Name, MeanPs: int64(row.Mean), CPUCycles: freq.CyclesIn(row.Mean)})
	}
	return out
}

// OSLatInBand reports whether the null-syscall cost sits in the
// paper's §2.2 band.
func OSLatInBand(r *Result) bool {
	cycles := OSLatCycles(r)
	return cycles >= 1000 && cycles <= 5000
}

func oslatText(r *Result, p Params) string {
	cfg := machine.Alpha3000TC(dma.ModePaired, 0)
	cpuFreq := cfg.CPU.Freq
	var b strings.Builder
	fmt.Fprintf(&b, "OS latency microbenchmarks — %s (%d iterations)\n\n", cfg.Name, p.Iters)
	rows := Collect[Row](r)
	tb := stats.NewTable("microbenchmark", "mean", "CPU cycles")
	for _, row := range rows {
		tb.AddRow(row.Name, row.Mean, cpuFreq.CyclesIn(row.Mean))
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	cycles := OSLatCycles(r)
	fmt.Fprintf(&b, "paper §2.2: empty syscall should cost 1,000-5,000 cycles — measured %d: ", cycles)
	if OSLatInBand(r) {
		b.WriteString("WITHIN BAND\n")
	} else {
		b.WriteString("OUT OF BAND\n")
		return b.String()
	}
	fmt.Fprintf(&b, "kernel DMA = null syscall + %v of translation, checks and device programming\n",
		rows[1].Mean-rows[0].Mean)
	return b.String()
}
