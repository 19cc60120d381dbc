//go:build unix

package obs

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// readOnlyCells maps one page with no write permission and returns n
// counter cells on it (all zero); storing to any of them faults.
func readOnlyCells(t *testing.T, n int) []Counter {
	t.Helper()
	page, err := syscall.Mmap(-1, 0, syscall.Getpagesize(), syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(page); err != nil {
			t.Error(err)
		}
	})
	return unsafe.Slice((*Counter)(unsafe.Pointer(&page[0])), n)
}

// TestRegistryExtrapolateGauge: a gauge that moved down between Read
// and Extrapolate falls by k times its drop, past zero included, with
// the bits an int64 add leaves; cells that did not move are never
// written. The unmoved cells live on a read-only page, so a store to
// any of them — even of its own value — faults.
func TestRegistryExtrapolateGauge(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	ro := readOnlyCells(t, 2)
	r := NewRegistry()
	var c Counter
	var down, up Gauge
	r.RegisterCounter("c", &c)
	r.RegisterGauge("down", &down)
	r.RegisterCounter("still.counter", &ro[0])
	r.RegisterGauge("up", &up)
	r.RegisterGauge("still.gauge", (*Gauge)(&ro[1]))
	down.Add(10)
	up.Add(-50)
	base := make([]uint64, r.Len())
	r.Read(base)
	c.Inc()
	down.Add(-4)
	up.Add(7)
	func() {
		defer func() {
			if err := recover(); err != nil {
				t.Fatalf("Extrapolate wrote a cell that did not move: %v", err)
			}
		}()
		r.Extrapolate(base, 5)
	}()
	want := []struct {
		name string
		got  int64
		want int64
	}{
		{"counter", int64(c.Value()), 6},
		{"falling gauge", down.Value(), 10 - 4*6},
		{"rising gauge", up.Value(), -50 + 7*6},
		{"unmoved counter", int64(ro[0].Value()), 0},
		{"unmoved gauge", Gauge(ro[1]).Value(), 0},
	}
	for _, w := range want {
		if w.got != w.want {
			t.Errorf("%s after Extrapolate: %d, want %d", w.name, w.got, w.want)
		}
	}
	if v, _ := r.Get("down"); v != uint64(down.Value()) {
		t.Errorf("Get(down) = %#x, want the gauge's int64 bits %#x", v, uint64(down.Value()))
	}
}
