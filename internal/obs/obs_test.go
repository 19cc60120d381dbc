package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"uldma/internal/sim"
)

func TestRegistryOrderAndValues(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	r.RegisterCounter("z.count", &c)
	r.RegisterGauge("a.gauge", &g)

	c.Add(3)
	c.Inc()
	g.Add(10)
	g.Max(4) // no-op: already 10
	g.Max(25)

	snap := r.Snapshot()
	want := []MetricValue{{"z.count", 4}, {"a.gauge", 25}}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d metrics, want %d", len(snap), len(want))
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("metric %d = %+v, want %+v (registration order must be preserved)", i, snap[i], want[i])
		}
	}
	if v, ok := r.Get("z.count"); !ok || v != 4 {
		t.Fatalf("Get(z.count) = %d, %v", v, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get of unregistered metric succeeded")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	var c Counter
	r.RegisterCounter("dup", &c)
	r.RegisterCounter("dup", &c)
}

func TestTraceRingOverwritesOldest(t *testing.T) {
	tr := NewTrace(3, Ring)
	for i := 0; i < 5; i++ {
		tr.Instant(sim.Time(i), CatBus, "e", 0, 0, uint64(i), 0, 0)
	}
	if tr.Emitted() != 5 || tr.Dropped() != 2 || len(tr.events) != 3 {
		t.Fatalf("emitted=%d dropped=%d len=%d, want 5/2/3", tr.Emitted(), tr.Dropped(), len(tr.events))
	}
	ev := tr.Events()
	for i, e := range ev {
		if e.A0 != uint64(i+2) {
			t.Fatalf("ring order wrong: event %d has A0=%d, want %d", i, e.A0, i+2)
		}
	}
}

func TestTraceDropNewestKeepsFirst(t *testing.T) {
	tr := NewTrace(2, DropNewest)
	for i := 0; i < 5; i++ {
		tr.Instant(sim.Time(i), CatBus, "e", 0, 0, uint64(i), 0, 0)
	}
	if tr.Dropped() != 3 || len(tr.events) != 2 {
		t.Fatalf("dropped=%d len=%d, want 3/2", tr.Dropped(), len(tr.events))
	}
	ev := tr.Events()
	if ev[0].A0 != 0 || ev[1].A0 != 1 {
		t.Fatalf("DropNewest must keep the FIRST events, got A0 %d,%d", ev[0].A0, ev[1].A0)
	}
}

func TestTraceStateRoundTrip(t *testing.T) {
	tr := NewTrace(3, Ring)
	for i := 0; i < 4; i++ {
		tr.Instant(sim.Time(i), CatLink, "d", 1, 2, uint64(i), 0, 0)
	}
	st := tr.State()
	tr.Instant(99, CatFault, "drop", 0, 0, 0, 0, 0)
	if err := tr.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if tr.Emitted() != 4 || tr.Dropped() != 1 {
		t.Fatalf("restored emitted=%d dropped=%d, want 4/1", tr.Emitted(), tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != 3 || ev[len(ev)-1].A0 != 3 {
		t.Fatalf("restored events wrong: %+v", ev)
	}
	other := NewTrace(5, Ring)
	if err := other.RestoreState(st); err == nil {
		t.Fatal("restore into a different-capacity trace succeeded, want error")
	}
}

// TestPerfettoSchema pins the trace_event invariants a viewer needs:
// every record has name/ph/pid/tid, phases are M/X/i, X events carry
// dur, i events carry s, and ts is microseconds (ps / 1e6).
func TestPerfettoSchema(t *testing.T) {
	tr := NewTrace(0, Ring)
	tr.Span(2_000_000, 1_000_000, CatSyscall, "sys_dma", 0, 1, 6, 0, 0)
	tr.Instant(3_000_000, CatSched, "ctxswitch", 0, 1, 1, 2, 0)

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, []PerfettoProcess{{PID: 7, Name: "world", Events: tr.Events()}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	sawX, sawI, sawM := false, false, false
	for _, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event lacks %q: %v", key, e)
			}
		}
		switch e["ph"] {
		case "M":
			sawM = true
		case "X":
			sawX = true
			if _, ok := e["dur"]; !ok {
				t.Fatalf("X event lacks dur: %v", e)
			}
			if e["ts"].(float64) != 2.0 {
				t.Fatalf("span ts = %v µs, want 2 (ps/1e6)", e["ts"])
			}
		case "i":
			sawI = true
			if e["s"] != "t" {
				t.Fatalf("instant lacks s:t: %v", e)
			}
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if !sawX || !sawI || !sawM {
		t.Fatalf("missing phases: X=%v i=%v M=%v", sawX, sawI, sawM)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatal("count mismatch")
	}
}

func BenchmarkTraceEmit(b *testing.B) {
	tr := NewTrace(1024, Ring)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Instant(sim.Time(i), CatBus, "load", 0, 0, 1, 2, 3)
	}
}

// TestRegistryExtrapolate: Extrapolate adds k times each cell's change
// since an earlier Read, counters and gauges alike.
func TestRegistryExtrapolate(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	r.RegisterCounter("c", &c)
	r.RegisterGauge("g", &g)
	c.Add(7)
	g.Add(100)
	base := make([]uint64, r.Len())
	r.Read(base)
	c.Add(2)
	g.Add(-3)
	r.Extrapolate(base, 4)
	if c != 7+2*5 || g != 100-3*5 {
		t.Fatalf("after Extrapolate: counter %d, gauge %d; want %d, %d", c, g, 7+2*5, 100-3*5)
	}
}
