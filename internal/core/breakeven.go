package userdma

import (
	"fmt"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// Experiment X6 quantifies the paper's opening argument:
//
//	"Soon, the operating system overhead associated with starting a DMA
//	 will be larger than the data transfer itself, esp. for small data
//	 transfers."
//
// For each method and transfer size we measure the initiation time and
// the wire time of the transfer, and report the crossover: the smallest
// size whose transfer outweighs its initiation.

// BreakEvenPoint is one (method, size) measurement.
type BreakEvenPoint struct {
	Size       uint64
	Initiation sim.Time `json:"InitiationPs"` // start of sequence to status returned
	Transfer   sim.Time `json:"TransferPs"`   // engine accept to last byte delivered
	// InitShare is initiation / (initiation + transfer).
	InitShare float64
}

// DefaultSizes is the sweep used by the tools: 8 B to 64 KiB.
var DefaultSizes = []uint64{8, 64, 256, 1024, 4096, 16384, 65536}

// BreakEven sweeps transfer sizes for one method on its calibrated
// preset. Each size runs on a pristine world so engine queueing never
// contaminates the numbers — one machine is built and snapshotted at
// construction, then rewound in place between sizes instead of being
// reconstructed (a pristine restored world is indistinguishable from a
// fresh one; the snapshot equivalence tests pin this).
func BreakEven(method Method, sizes []uint64) ([]BreakEvenPoint, error) {
	snap, err := NewWorld(ConfigFor(method))
	if err != nil {
		return nil, err
	}
	var out []BreakEvenPoint
	for _, size := range sizes {
		pt, err := breakEvenOnWorld(snap, method, size)
		if err != nil {
			return nil, fmt.Errorf("size %d: %w", size, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// NewWorld builds a machine from cfg and captures it at construction.
// The snapshot is the reusable form of the configuration: hydrate any
// number of independent clones with machine.NewFromSnapshot (cells
// running in parallel), or rewind the origin in place between serial
// runs. Memory is shared copy-on-write, so clones of a pristine world
// cost a page-pointer table, not a memory image.
func NewWorld(cfg machine.Config) (*machine.Snapshot, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return m.Snapshot()
}

// BreakEvenCell measures one (method, config, size) break-even cell on
// a fresh machine — the unit the experiment layer (internal/exp)
// parallelises.
func BreakEvenCell(method Method, cfg machine.Config, size uint64) (BreakEvenPoint, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return BreakEvenPoint{}, err
	}
	return breakEvenOn(m, method, size)
}

// BreakEvenCellFrom measures one break-even cell on a clone hydrated
// from a pristine world snapshot (see NewWorld). Clones are independent
// worlds, so any number of cells can run concurrently off one snapshot.
func BreakEvenCellFrom(snap *machine.Snapshot, method Method, size uint64) (BreakEvenPoint, error) {
	m, err := machine.NewFromSnapshot(snap)
	if err != nil {
		return BreakEvenPoint{}, err
	}
	return breakEvenOn(m, method, size)
}

// breakEvenOnWorld rewinds the snapshot's origin machine in place and
// measures one cell on it — the serial-sweep path, which reuses one
// world across sizes.
func breakEvenOnWorld(snap *machine.Snapshot, method Method, size uint64) (BreakEvenPoint, error) {
	m, err := machine.RestoreOrigin(snap)
	if err != nil {
		return BreakEvenPoint{}, err
	}
	return breakEvenOn(m, method, size)
}

func breakEvenOn(m *machine.Machine, method Method, size uint64) (BreakEvenPoint, error) {
	pageSize := m.Cfg.PageSize
	pages := int((size + pageSize - 1) / pageSize)
	if pages == 0 {
		pages = 1
	}

	var h *Handle
	var pt BreakEvenPoint
	const srcBase, dstBase = vm.VAddr(0x100000), vm.VAddr(0x900000)
	p := m.NewProcess("bench", func(c *proc.Context) error {
		// Warm the TLB so initiation matches the Table 1 methodology
		// (zero-length: no transfer, no bus contention).
		if _, err := h.DMA(c, srcBase, dstBase, 0); err != nil {
			return err
		}
		start := m.Clock.Now()
		st, err := h.DMA(c, srcBase, dstBase, size)
		if err != nil {
			return err
		}
		if st == dma.StatusFailure {
			return fmt.Errorf("userdma: initiation refused")
		}
		pt.Initiation = m.Clock.Now() - start
		return nil
	})
	var err error
	h, err = method.Attach(m, p)
	if err != nil {
		return pt, err
	}
	if _, err := m.SetupPages(p, srcBase, pages, vm.Read|vm.Write); err != nil {
		return pt, err
	}
	dstFrames, err := m.SetupPages(p, dstBase, pages, vm.Read|vm.Write)
	if err != nil {
		return pt, err
	}
	if s1, ok := method.(SHRIMP1); ok {
		if err := s1.MapOutPage(m, p, srcBase, dstFrames[0]); err != nil {
			return pt, err
		}
	}
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		return pt, err
	}
	if p.Err() != nil {
		return pt, p.Err()
	}
	t := m.Engine.LastTransfer()
	if t == nil || t.Failed {
		return pt, fmt.Errorf("userdma: no transfer recorded")
	}
	pt.Size = size
	pt.Transfer = t.End - t.Start
	pt.InitShare = float64(pt.Initiation) / float64(pt.Initiation+pt.Transfer)
	return pt, nil
}

// Crossover returns the smallest measured size whose transfer time
// meets or exceeds its initiation time, and whether any size did.
func Crossover(points []BreakEvenPoint) (uint64, bool) {
	for _, pt := range points {
		if pt.Transfer >= pt.Initiation {
			return pt.Size, true
		}
	}
	return 0, false
}

// Experiment X7: the paper's motivating trend. "Operating Systems do
// not get faster as fast as hardware does ... the operating system
// overhead keeps getting an ever-increasing percentage of the DMA
// transfer time." The trend experiment measures kernel and
// extended-shadow initiation across three hardware generations and the
// break-even size of the kernel path in each.

// Era is one hardware generation in the trend sweep.
type Era struct {
	Name   string
	Config func(mode dma.Mode, seqLen int) machine.Config
}

// TrendEras returns the three generations of experiment X7.
func TrendEras() []Era {
	return []Era{
		{Name: "1994 (100MHz, TC, 1.5k-cycle trap)", Config: machine.Workstation1994},
		{Name: "1997 (150MHz, TC, 2.2k-cycle trap)", Config: machine.Alpha3000TC},
		{Name: "2000 (500MHz, PCI-66, 4.3k-cycle trap)", Config: machine.Workstation2000},
	}
}

// TrendPoint is one era's measurement.
type TrendPoint struct {
	Era             string
	KernelInit      sim.Time `json:"KernelInitPs"`
	UserInit        sim.Time `json:"UserInitPs"` // extended shadow addressing
	KernelCrossover uint64   // bytes where the wire outweighs the kernel trap
}
