package dma

import "uldma/internal/phys"

// DecodedWindow names the window the engine's own decode dispatches
// addr to, for the external window-agreement test.
func (e *Engine) DecodedWindow(addr phys.Addr) string {
	w, _ := e.classify(addr)
	return windowNames[w]
}

// ParkedTransfers returns how many transfers are parked on a fault.
func (e *Engine) ParkedTransfers() int { return len(e.vaParked) }
