// Package dmatest holds test helpers for code built on the DMA engine.
package dmatest

import "uldma/internal/dma"

// Accepted subscribes to e's accept hook and returns the list it fills:
// every transfer e accepts from now on, as accepted, in start order.
func Accepted(e *dma.Engine) *[]dma.Transfer {
	var log []dma.Transfer
	e.SetAcceptHook(func(t dma.Transfer) { log = append(log, t) })
	return &log
}
