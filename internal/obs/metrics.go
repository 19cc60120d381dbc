// Package obs is the simulator's unified observability plane: ONE
// metrics registry and ONE structured trace spine shared by every
// component (cpu, tlb, bus, write buffer, phys, dma, proc, kernel,
// iommu, net).
//
// Every component keeps its counts in one exported struct of typed
// Counter/Gauge cells (bus.Counters, dma.Counters, ...); the msg
// endpoints do too, though they register none. That struct is
// the live storage the hot paths increment, the state a snapshot copies
// by value, and what callers read through the component's Counters()
// accessor. A Registry holds pointers to those same cells under dotted
// names, so one ordered, name-addressed view of the whole world needs
// no second copy. Alongside the registry, a ring-buffered, sim-clocked
// event stream (Trace) with spans exports Chrome/Perfetto trace_event
// JSON.
//
// Two invariants the rest of the repo builds on:
//
//   - Rewind-with-the-world: every registered metric and the trace
//     spine's state are captured by machine.Snapshot and rewound by
//     Restore/NewFromSnapshot, exactly like the architectural state
//     they describe. A clone hydrated from a snapshot reports the
//     counters AS OF the snapshot — never the origin's later activity
//     (TestCounterRewindRule).
//
//   - Pay-for-what-you-use: a nil *Trace is the disabled state; every
//     emission site is a nil-check plus nothing. The Table-1
//     initiation hot path shows a zero allocation delta and a zero
//     simulated-cycle delta with obs present — disabled or enabled —
//     versus the pre-obs baseline (BenchmarkObsDisabled,
//     TestObsZeroMarginalAllocDelta, TestObsTracingNoCycleDelta in
//     internal/core).
package obs

// Counter is a monotonically increasing event count. Increment is a
// plain machine add — no atomics (the simulator is single-threaded per
// world by design), no indirection, no allocation (asserted by
// BenchmarkCounterInc).
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { *c++ }

// Add adds n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value reads the count. It takes the cell by value, so a counters
// struct returned by value can be read in one expression.
func (c Counter) Value() uint64 { return uint64(c) }

// Gauge is a signed accumulator for cycle/time tallies and
// level-style values (e.g. the highest node id addressed). It is a
// Counter cell read as two's complement: adding d as uint64 leaves the
// same bits as an int64 add, so the registry stores and extrapolates
// gauges and counters alike.
type Gauge Counter

// Add accumulates d.
func (g *Gauge) Add(d int64) { *g += Gauge(d) }

// Max raises the gauge to v if v is larger.
func (g *Gauge) Max(v int64) {
	if v > int64(*g) {
		*g = Gauge(v)
	}
}

// Value reads the gauge.
func (g Gauge) Value() int64 { return int64(g) }

// MetricValue is one (name, value) pair of a registry snapshot.
// Signed gauges are widened into uint64 (they are non-negative in
// every component that registers one; the registry does not reinterpret).
type MetricValue struct {
	Name  string
	Value uint64
}

// Registry is the machine-wide metric directory. Components register
// pointers to their counter cells at construction under dotted names
// ("bus.loads"); Snapshot renders every metric in registration order —
// one deterministic, ordered view of the whole world's counters.
//
// Reads dereference the registered cells, so the registry always
// reflects live component state (including state rewound by
// machine.Restore) without the components writing through it. Each
// cell is one *Counter (a gauge registers its Counter view), so Read
// and Extrapolate walk one pointer slice with no branch on the kind.
// Registration happens once per world at construction. Components
// never write through the registry; the one hot-path user is
// Handle.Wait's quiet-stretch poll skip (internal/core), which Reads
// every cell once per armed poll and Extrapolates them once per skipped
// stretch.
type Registry struct {
	names []string
	cells []*Counter
	index map[string]int
}

// NewRegistry creates an empty registry, sized for a machine's 50 to 63
// metrics so that registration allocates each table once instead of
// regrowing it (a world's build is part of the VA workloads'
// per-transfer allocation).
func NewRegistry() *Registry {
	const n = 64
	return &Registry{names: make([]string, 0, n), cells: make([]*Counter, 0, n), index: make(map[string]int, n)}
}

// register adds a cell. Names must be unique; duplicates are a wiring
// bug and panic.
func (r *Registry) register(name string, c *Counter) {
	if c == nil {
		panic("obs: nil cell for metric " + name)
	}
	if _, dup := r.index[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.index[name] = len(r.names)
	r.names = append(r.names, name)
	r.cells = append(r.cells, c)
}

// RegisterCounter registers a Counter cell.
func (r *Registry) RegisterCounter(name string, c *Counter) { r.register(name, c) }

// RegisterGauge registers a Gauge cell (read as its uint64 bits).
func (r *Registry) RegisterGauge(name string, g *Gauge) { r.register(name, (*Counter)(g)) }

// Len reports how many metrics are registered.
func (r *Registry) Len() int { return len(r.names) }

// Get reads one metric by name.
func (r *Registry) Get(name string) (uint64, bool) {
	i, ok := r.index[name]
	if !ok {
		return 0, false
	}
	return uint64(*r.cells[i]), true
}

// Snapshot reads every metric, in registration order. The order is a
// pure function of construction order, so two identically built worlds
// render byte-identical snapshots.
func (r *Registry) Snapshot() []MetricValue {
	out := make([]MetricValue, len(r.names))
	for i, name := range r.names {
		out[i] = MetricValue{Name: name, Value: uint64(*r.cells[i])}
	}
	return out
}

// Read copies every metric's value into dst, in registration order,
// without allocating. dst must hold at least Len() values.
func (r *Registry) Read(dst []uint64) {
	dst = dst[:len(r.cells)]
	for i, c := range r.cells {
		dst[i] = uint64(*c)
	}
}

// Extrapolate adds to every cell k times its change since base, an
// earlier Read: the values k more repeats of the activity in between
// would leave. Every cell must accumulate (Inc or Add), as each
// machine metric does; a gauge's negative change wraps to the same
// bits an int64 add leaves. Cells that did not move are not written.
func (r *Registry) Extrapolate(base []uint64, k uint64) {
	base = base[:len(r.cells)]
	for i, c := range r.cells {
		if d := uint64(*c) - base[i]; d != 0 {
			*c += Counter(k * d)
		}
	}
}
