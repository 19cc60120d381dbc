package dma

import (
	"fmt"

	"uldma/internal/phys"
)

// DecodedWindow names the window the engine's own decode dispatches
// addr to, for the external window-agreement test.
func (e *Engine) DecodedWindow(addr phys.Addr) string {
	w, _ := e.classify(addr)
	return windowNames[w]
}

// ParkedTransfers returns how many transfers are parked on a fault.
func (e *Engine) ParkedTransfers() int { return len(e.vaParked) }

// SetRingVA switches ring ctx between physical descriptors (validated
// against RingAllow extents) and virtual descriptors (device VAs for
// translation context ctx, validated by the IOMMU's page tables — the
// mapping IS the registration). Kernel setup-time operation; requires a
// ring installed, and an attached IOMMU to turn on.
func (e *Engine) SetRingVA(ctx int, on bool) error {
	if ctx < 0 || ctx >= len(e.rings) {
		return fmt.Errorf("dma: ring context %d out of range", ctx)
	}
	r := &e.rings[ctx]
	if r.depth == 0 {
		return fmt.Errorf("dma: ring context %d has no ring installed", ctx)
	}
	if on && e.iommu == nil {
		return fmt.Errorf("dma: virtual ring needs an attached IOMMU")
	}
	r.va = on
	return nil
}
