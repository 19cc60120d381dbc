package main

// The traced run's span recorder. Every public call the benchmark makes
// into the simulator is wrapped in a span named <module>.<Function>.
//
// Self time is attributed by intervals: the host time between two
// consecutive span events (a begin or an end) belongs to the innermost
// open span, meaning the most recently begun one still open. For spans
// that nest on one goroutine this is exactly "duration minus the time
// the child spans cover". Guest processes are coroutines that preempt
// each other between simulated instructions, so one guest's
// Handle.DMA span can open while another's is suspended mid-sequence;
// the interval rule then charges the switch to whichever span the
// running guest opened last. Every nanosecond of the traced window is
// charged to exactly one span, so self times sum to the traced total.
//
// Aggregates are kept for every span; the first maxSpans raw spans are
// kept in memory and written out at the end as a Chrome trace-event
// file (loadable in Perfetto). A nil *tracer is the tracing-off state:
// begin and end return at once.

import (
	"encoding/json"
	"os"
	"time"
)

// maxSpans caps the raw spans kept for the trace file; aggregates cover
// every span regardless.
const maxSpans = 50_000

type spanStat struct {
	calls   int64
	selfNs  int64
	totalNs int64
}

type openSpan struct {
	token int64
	name  string
	start time.Duration
	self  time.Duration
	rec   int32 // index into tracer.spans, -1 once the cap is reached
}

type spanRec struct {
	name   string
	parent int32
	start  time.Duration
	dur    time.Duration
}

type tracer struct {
	t0    time.Time
	last  time.Duration // time of the previous span event
	next  int64         // next span token
	open  []openSpan    // open spans in begin order
	stats map[string]*spanStat
	spans []spanRec
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stats: map[string]*spanStat{}}
}

// charge hands the interval since the previous event to the innermost
// open span and returns the current time.
func (t *tracer) charge() time.Duration {
	now := time.Since(t.t0)
	if n := len(t.open); n > 0 {
		t.open[n-1].self += now - t.last
	}
	t.last = now
	return now
}

// begin opens a span named name and returns the token that closes it.
func (t *tracer) begin(name string) int64 {
	if t == nil {
		return 0
	}
	now := t.charge()
	rec := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].rec
		}
		rec = int32(len(t.spans))
		t.spans = append(t.spans, spanRec{name: name, parent: parent, start: now})
	}
	t.next++
	t.open = append(t.open, openSpan{token: t.next, name: name, start: now, rec: rec})
	return t.next
}

// end closes the span begin returned token for.
func (t *tracer) end(token int64) {
	if t == nil {
		return
	}
	now := t.charge()
	i := len(t.open) - 1
	for i > 0 && t.open[i].token != token {
		i--
	}
	s := t.open[i]
	t.open = append(t.open[:i], t.open[i+1:]...)
	if s.rec >= 0 {
		t.spans[s.rec].dur = now - s.start
	}
	st := t.stats[s.name]
	if st == nil {
		st = &spanStat{}
		t.stats[s.name] = st
	}
	st.calls++
	st.selfNs += int64(s.self)
	st.totalNs += int64(now - s.start)
}

// span runs f inside a span named name.
func span[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	tok := t.begin(name)
	defer t.end(tok)
	return f()
}

// self returns the summed self time in ns and the call count of the
// spans named name (zero when tracing is off or no such span ran).
func (t *tracer) self(name string) (ns float64, calls int64) {
	if t == nil || t.stats[name] == nil {
		return 0, 0
	}
	st := t.stats[name]
	return float64(st.selfNs), st.calls
}

// total returns the summed duration in ns of the spans named name,
// children included.
func (t *tracer) total(name string) float64 {
	if t == nil || t.stats[name] == nil {
		return 0
	}
	return float64(t.stats[name].totalNs)
}

// selfPerCall returns the mean self time per call of name, in ns.
func (t *tracer) selfPerCall(name string) float64 {
	ns, calls := t.self(name)
	if calls == 0 {
		return 0
	}
	return ns / float64(calls)
}

// writeFile writes the kept raw spans as Chrome trace events
// (microsecond timestamps, complete "X" events, parent index in args).
func (t *tracer) writeFile(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.dur) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
