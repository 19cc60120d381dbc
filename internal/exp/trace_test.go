package exp

// Tests for the shared -trace-out plumbing: the default Table-1
// scenario and the faultsearch seed replay must both render valid,
// deterministic Perfetto trace_event documents.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	userdma "uldma/internal/core"
	"uldma/internal/obs"
)

// validatePerfetto decodes data and checks the trace_event invariants a
// viewer needs (the same ones internal/obs pins at the writer level):
// displayTimeUnit present, every record carries name/ph/pid/tid, X
// events carry dur, i events carry s. Returns the event maps.
func validatePerfetto(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	for _, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event lacks %q: %v", key, e)
			}
		}
		switch e["ph"] {
		case "M":
		case "X":
			if _, ok := e["dur"]; !ok {
				t.Fatalf("X event lacks dur: %v", e)
			}
		case "i":
			if e["s"] != "t" {
				t.Fatalf("instant lacks s:t: %v", e)
			}
		default:
			t.Fatalf("unknown phase %v", e["ph"])
		}
	}
	return doc.TraceEvents
}

// countCats tallies how many events carry each thread-name category
// row (metadata rows excluded).
func phases(events []map[string]any) map[string]int {
	out := map[string]int{}
	for _, e := range events {
		out[e["ph"].(string)]++
	}
	return out
}

// TestDefaultTraceScenarioSchema renders the default -trace-out
// scenario (one Table-1 world per method) and validates the document:
// one Perfetto process per method, named after it, with real span and
// instant traffic, and byte-identical across two renders.
func TestDefaultTraceScenarioSchema(t *testing.T) {
	procs, err := defaultTraceScenario()
	if err != nil {
		t.Fatal(err)
	}
	methods := userdma.Methods()
	if len(procs) != len(methods) {
		t.Fatalf("got %d process rows, want %d (one per method)", len(procs), len(methods))
	}
	for i, p := range procs {
		if p.Name != methods[i].Name() {
			t.Fatalf("process %d named %q, want %q", i, p.Name, methods[i].Name())
		}
		if len(p.Events) == 0 {
			t.Fatalf("process %q has no events", p.Name)
		}
	}
	render := func() []byte {
		f := filepath.Join(t.TempDir(), "trace.json")
		if err := writeTraceTo(f, procs); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := render()
	events := validatePerfetto(t, data)
	ph := phases(events)
	if ph["X"] == 0 || ph["i"] == 0 {
		t.Fatalf("scenario rendered no spans or no instants: %v", ph)
	}
	if string(render()) != string(data) {
		t.Fatal("two renders of the same scenario differ")
	}
}

// TestFaultReplaySchema replays one faultsearch seed through the
// traced path and validates the document: valid trace_event JSON, a
// process row naming the seed and plan, syscall/sched/link activity
// present, and the search's verdict restated.
func TestFaultReplaySchema(t *testing.T) {
	out := filepath.Join(t.TempDir(), "replay.json")
	old := traceOut
	traceOut = out
	defer func() { traceOut = old }()

	verdict, err := FaultReplay(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != "exactly-once, in order" {
		t.Fatalf("seed 1 verdict = %q; the bounded search passes this seed, so the straight-line replay must too", verdict)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	events := validatePerfetto(t, data)

	// The replay is a full cluster run of the user-level channel: the
	// document must show bus traffic, DMA windows, link deliveries,
	// scheduler decisions and msg recovery machinery — and, tellingly,
	// it may show NO syscall spans at all (the paper's point: the data
	// path never crosses the kernel).
	cats := map[string]bool{}
	var procName string
	for _, e := range events {
		switch e["ph"] {
		case "M":
			if e["name"] == "process_name" {
				procName = e["args"].(map[string]any)["name"].(string)
			}
		default:
			if tid, ok := e["tid"].(float64); ok && int(tid) >= 1 {
				cats[obs.Category(int(tid)-1).String()] = true
			}
		}
	}
	if procName == "" {
		t.Fatal("no process_name metadata row")
	}
	for _, want := range []string{"faultsearch seed=1", "plan="} {
		if !strings.Contains(procName, want) {
			t.Fatalf("process row %q does not mention %q", procName, want)
		}
	}
	for _, want := range []string{"bus", "dma", "sched", "link", "msg"} {
		if !cats[want] {
			t.Fatalf("replay document has no %q events (saw %v)", want, cats)
		}
	}
}
