// Package exp is the repository's unified experiment engine.
//
// Every quantitative artifact of the reproduction — Table 1, the bus
// sweep, the break-even study, the hardware-generation trend, the
// contention study, the adversarial searches, the OS and cluster
// microbenchmarks — is an *experiment*: a named, declarative spec that
// expands into a grid of independent Cells (method × config × size ×
// seed), each of which builds, runs and observes ONE simulated world.
// One generic runner executes every experiment's cells on the
// internal/par worker pool and folds the observations into a single
// ordered Result schema, which pluggable renderers turn into the
// fixed-width text, markdown and raw-picosecond JSON the cmd/ tools
// print.
//
// The determinism contract, inherited from internal/par and pinned by
// the parity and golden-file tests:
//
//   - Cell expansion is pure: the same Params always yield the same
//     cells in the same order.
//   - Results are ordered by cell index — never keyed by map — so a
//     rendered experiment is byte-identical across runs and across any
//     -procs value.
//   - Errors surface in cell order: the error returned is always that
//     of the lowest-indexed failing cell, exactly as a serial loop
//     would have reported it.
//   - Search experiments (cells that can *stop* the sweep, like the
//     exhaustive interleaving hunt) stop at the lowest-indexed stopping
//     cell in grid order, not the first found on the wall clock.
//
// Adding a workload is one spec plus one Register call; the registry
// (Lookup, Names, List) is what the tools' -list flag enumerates.
package exp

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/par"
	"uldma/internal/sim"
	"uldma/internal/stats"
)

// Params are the knobs an experiment spec expands under. Scalar counts
// (Iters, Seeds, Slots, Msgs, ...) are taken as given — the cmd/ tools'
// flag defaults own their conventional values — while the grid axes
// (Freqs, Sizes, Methods) fall back to the canonical paper axes when
// nil, so a zero-value axis always means "the experiment as published".
type Params struct {
	Iters int // initiations per timing cell (the paper's loop: 1000)
	Procs int // worker goroutines for independent cells (<= 0 = GOMAXPROCS)

	Seeds       int  // campaign: seeded adversarial runs
	Slots       int  // exhaustive: attacker slots
	ShareA      bool // campaign: give the attacker read access to page A
	LooseStatus bool // campaign: paper's literal Figure 7 client

	Methods []userdma.Method // comparators: method-axis override (nil = canonical five)
	Freqs   []sim.Hz         // bussweep: frequency axis (nil = X4's 12.5/33/66 MHz)
	Sizes   []uint64         // breakeven/trend: size axis (nil = userdma.DefaultSizes)

	Msgs    int    // clustersim: messages per method
	MsgSize uint64 // clustersim: payload bytes
	ATM     bool   // clustersim: ATM-155 link preset instead of Gigabit
	Hist    bool   // clustersim: render per-method latency histograms

	Nodes      int      // scale: cluster size (0 = 32)
	Shards     int      // scale: partition width (0 = 4)
	Arrival    int      // scale: per-node RPC arrival rate, RPCs/s (0 = 20000)
	Tenants    int      // scale: arrival streams per node (0 = 2)
	ScaleBytes uint64   // scale: request payload bytes (0 = 64)
	ScaleDur   sim.Time // scale: arrival-window length (0 = 2ms)
	ScaleSeed  uint64   // scale: world seed (0 = 1)

	TLB int // vasweep: IOTLB entries for the hit-rate sweep (0 = 8)

	// Protocol selects the scalemachine initiation protocol: "kernel",
	// "extshadow", "keybased", "repeated", or ""/"all" for the full
	// NOW comparison line-up (one cell per protocol).
	Protocol string
}

func (p Params) freqs() []sim.Hz {
	if len(p.Freqs) == 0 {
		return DefaultFreqs()
	}
	return p.Freqs
}

func (p Params) sizes() []uint64 {
	if len(p.Sizes) == 0 {
		return userdma.DefaultSizes
	}
	return p.Sizes
}

// DefaultFreqs is experiment X4's bus-frequency axis.
func DefaultFreqs() []sim.Hz {
	return []sim.Hz{12_500_000, 33 * sim.MHz, 66 * sim.MHz}
}

// Obs is one cell's observation: the cell's result values in the
// order it produced them — core/exp result structs such as
// userdma.InitiationResult or FaultPoint, which are also the JSON rows
// the tools emit. Collect gathers one type across a Result.
type Obs []any

// Row is one generic latency-table row produced by the OS and cluster
// microbenchmark cells.
type Row struct {
	Name string
	Mean sim.Time
	Init sim.Time      // clustersim: initiation component of Mean
	Hist *stats.Sample // clustersim: latency distribution (for -hist)
}

// Cell is one independent unit of an experiment: a fresh simulated
// world identified by its grid labels. Run builds and runs the world
// and returns its observation; stop = true marks a cell that ends a
// search sweep (e.g. a hijack found). Cells share no state, which is
// what lets the runner fan them out across host cores while keeping
// every world single-goroutine and bit-for-bit deterministic.
type Cell struct {
	Method string // method-axis label ("" when the axis is unused)
	Config string // config-axis label (frequency, era, link, ...)
	Size   uint64 // size-axis label
	Seed   uint64 // seed-axis label
	Run    func() (obs Obs, stop bool, err error)
}

// CellResult pairs a cell with its observation.
type CellResult struct {
	Cell Cell
	Obs  Obs
}

// Result is the single ordered result schema every experiment
// produces: one CellResult per expanded cell, in expansion order —
// deliberately a slice keyed by cell index, never a map, so rendering
// is deterministic byte for byte.
type Result struct {
	Name  string       // experiment name (registry key)
	Cells []CellResult // ordered by cell index
	// Tried is the number of cells with a known outcome: len(Cells)
	// for grid experiments, the stopping cell's index + 1 for search
	// experiments that stopped early.
	Tried int
	// Stopped points at the cell that ended a search sweep (nil when
	// the sweep ran to completion). It always aliases the last entry
	// of Cells.
	Stopped *CellResult
}

// Collect gathers every observation of type T in cell order.
func Collect[T any](r *Result) []T {
	var out []T
	for _, c := range r.Cells {
		for _, o := range c.Obs {
			if v, ok := o.(T); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// Format selects an output renderer.
type Format int

const (
	// Text is the fixed-width table style cmd/dmabench and cmd/oslat
	// print.
	Text Format = iota
	// Markdown is cmd/report's section style.
	Markdown
	// JSON is the experiment's section of the one Doc the tools emit
	// with -json (Experiment.JSON).
	JSON
)

// String names the format the way error messages spell it.
func (f Format) String() string {
	switch f {
	case Text:
		return "text"
	case Markdown:
		return "markdown"
	case JSON:
		return "json"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// RenderFunc turns an experiment's ordered result into one output
// section. Renderers are pure: same result + params, same bytes.
type RenderFunc func(*Result, Params) string

// Experiment is a declarative spec: a registry name, a one-line doc
// string (what -list prints), a pure cell expansion, the text and
// markdown renderers the spec supports, and the hook that writes its
// section of the one JSON document (Doc) the tools emit.
type Experiment struct {
	Name   string
	Doc    string
	Cells  func(Params) ([]Cell, error)
	Render map[Format]RenderFunc
	JSON   func(*Result, Params, *Doc)
}

// Supports reports whether the experiment can print in format f.
func (e *Experiment) Supports(f Format) bool {
	if f == JSON {
		return e.JSON != nil
	}
	return e.Render[f] != nil
}

// errCellStop is the pool sentinel for "this cell ended the sweep"
// (search hit or cell error); par.Do guarantees every cell below the
// lowest stopping one still completes, which is exactly what the
// deterministic in-order merge needs.
var errCellStop = errors.New("exp: cell stop")

// Run expands the experiment's cells under p and executes them on
// p.Procs workers (<= 0 = GOMAXPROCS, 1 = plain serial loop). The
// merge is in cell order: on error it returns the partial ordered
// result up to and including the lowest-indexed failing cell together
// with that cell's error (so callers can still report how far the
// sweep got); on a search stop, Result.Stopped/Tried identify the
// lowest-indexed stopping cell in grid order regardless of worker
// scheduling.
func Run(e *Experiment, p Params) (*Result, error) {
	cells, err := e.Cells(p)
	if err != nil {
		return nil, err
	}
	type slot struct {
		obs  Obs
		stop bool
		err  error
	}
	slots := make([]slot, len(cells))
	// Job errors are demoted to the sentinel so par.Do prunes the tail
	// of the grid; the real errors are re-raised in cell order below.
	_ = par.Do(len(cells), p.Procs, func(i int) error {
		obs, stop, err := cells[i].Run()
		slots[i] = slot{obs: obs, stop: stop, err: err}
		if err != nil || stop {
			return errCellStop
		}
		return nil
	})
	res := &Result{Name: e.Name}
	for i := range cells {
		s := &slots[i]
		if s.err != nil {
			res.Tried = i + 1
			return res, s.err
		}
		res.Cells = append(res.Cells, CellResult{Cell: cells[i], Obs: s.obs})
		if s.stop {
			res.Tried = i + 1
			res.Stopped = &res.Cells[len(res.Cells)-1]
			return res, nil
		}
	}
	res.Tried = len(cells)
	return res, nil
}

// --- Registry ---

var registry = map[string]*Experiment{}

// Register adds an experiment to the registry. It panics on duplicate
// or empty names — specs register from init, so a clash is a
// programming error.
func Register(e *Experiment) {
	if e.Name == "" {
		panic("exp: Register with empty name")
	}
	if _, dup := registry[e.Name]; dup {
		panic("exp: duplicate experiment " + e.Name)
	}
	registry[e.Name] = e
}

// Lookup returns the named experiment.
func Lookup(name string) (*Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names returns every registered experiment name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// List renders the registry as the text every tool's -list flag
// prints.
func List() string {
	var b strings.Builder
	b.WriteString("experiments (one spec each; run on the shared cell runner):\n")
	w := 0
	for _, name := range Names() {
		if len(name) > w {
			w = len(name)
		}
	}
	for _, name := range Names() {
		fmt.Fprintf(&b, "  %-*s  %s\n", w, name, registry[name].Doc)
	}
	return b.String()
}

// RunNamed looks an experiment up and runs it.
func RunNamed(name string, p Params) (*Result, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (use -list)", name)
	}
	return Run(e, p)
}

// RenderNamed renders an already-run result in the requested format.
func RenderNamed(name string, f Format, r *Result, p Params) (string, error) {
	e, ok := Lookup(name)
	if !ok {
		return "", fmt.Errorf("exp: unknown experiment %q (use -list)", name)
	}
	fn, ok := e.Render[f]
	if !ok {
		return "", fmt.Errorf("exp: experiment %q has no %v renderer", name, f)
	}
	return fn(r, p), nil
}

// Report runs the named experiment and renders it — the one-call path
// the thin cmd/ frontends use for their text and markdown sections.
func Report(name string, f Format, p Params) (string, error) {
	r, err := RunNamed(name, p)
	if err != nil {
		return "", err
	}
	return RenderNamed(name, f, r, p)
}
