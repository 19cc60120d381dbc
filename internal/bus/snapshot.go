package bus

// World snapshot/restore support (see internal/machine). The bus itself
// is mostly structural — address map, cost table, clock wiring — so a
// snapshot captures only the mutable run state: traffic counters and
// the outstanding DMA bus-mastering windows. The write buffer
// additionally captures its queued entries and its load-ordering mode
// (which methods toggle per-experiment after construction).

import "fmt"

// BusSnapshot captures a Bus's mutable state. See Bus.Snapshot.
type BusSnapshot struct {
	ctr        Counters
	dmaWindows []stealWindow
}

// Snapshot captures the traffic counters and pending DMA windows.
func (b *Bus) Snapshot() *BusSnapshot {
	wins := make([]stealWindow, len(b.dmaWindows))
	copy(wins, b.dmaWindows)
	return &BusSnapshot{ctr: b.ctr, dmaWindows: wins}
}

// Restore rewinds the counters and DMA windows to the snapshot. Window
// times are absolute simulated instants, so this must be paired with a
// clock restore taken at the same moment.
func (b *Bus) Restore(s *BusSnapshot) {
	b.ctr = s.ctr
	b.dmaWindows = b.dmaWindows[:0]
	b.dmaWindows = append(b.dmaWindows, s.dmaWindows...)
}

// WBSnapshot captures a WriteBuffer's mutable state. See
// WriteBuffer.Snapshot.
type WBSnapshot struct {
	capacity   int
	strictLoad bool
	entries    []wbEntry
	ctr        WBCounters
}

// Snapshot captures the queued stores, counters and load-ordering mode.
func (w *WriteBuffer) Snapshot() *WBSnapshot {
	entries := make([]wbEntry, len(w.entries))
	copy(entries, w.entries)
	return &WBSnapshot{capacity: w.capacity, strictLoad: w.strictLoad, entries: entries, ctr: w.ctr}
}

// Restore rewinds the buffer to the snapshot. The snapshot must come
// from a buffer of the same capacity.
func (w *WriteBuffer) Restore(s *WBSnapshot) error {
	if s.capacity != w.capacity {
		return fmt.Errorf("bus: restore: snapshot from a %d-entry write buffer, buffer has %d", s.capacity, w.capacity)
	}
	w.strictLoad = s.strictLoad
	w.entries = w.entries[:0]
	w.entries = append(w.entries, s.entries...)
	w.ctr = s.ctr
	return nil
}
