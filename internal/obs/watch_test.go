package obs

// Tests for the live watch handle: a registered metric read mid-run
// costs no allocation. The steerparity make target runs this under
// -race.

import "testing"

func watchRegistry() (*Registry, *Counter) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	r.RegisterCounter("bus.loads", &c)
	r.RegisterGauge("dma.highwater", &g)
	var extra [30]Counter
	for i := range extra {
		r.RegisterCounter("pad.c"+string(rune('a'+i)), &extra[i])
	}
	return r, &c
}

func TestWatchZeroAllocs(t *testing.T) {
	r, c := watchRegistry()
	w, ok := r.Watch("bus.loads")
	if !ok {
		t.Fatal("Watch(bus.loads) not found")
	}
	if _, ok := r.Watch("no.such"); ok {
		t.Fatal("Watch resolved a metric that was never registered")
	}
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		if w.Value() == 0 {
			t.Error("watch read zero after Inc")
		}
	})
	if allocs != 0 {
		t.Fatalf("Watch.Value allocated %.1f times per call, want 0", allocs)
	}
}
