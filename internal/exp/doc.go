package exp

// The one JSON document cmd/dmabench and cmd/report emit with -json and
// cmd/benchdiff regenerates: each experiment writes its own section
// through its JSON hook, so a tool's -json path is a list of sections.

import (
	"encoding/json"
	"fmt"
	"io"

	userdma "uldma/internal/core"
	"uldma/internal/obs"
)

// Doc is the tools' JSON document: raw sim.Time values (picoseconds of
// simulated time), exact integers suitable for byte-for-byte regression
// comparison across code changes (see the BENCH_*.json snapshots).
// Field order is the wire order; every section but the header and
// Table 1 is omitted when its experiment did not run.
type Doc struct {
	Machine     string
	Iters       int
	Table1      []userdma.InitiationResult
	Comparators []userdma.InitiationResult            `json:",omitempty"`
	BusSweep    map[string][]userdma.InitiationResult `json:",omitempty"`
	BreakEven   map[string][]userdma.BreakEvenPoint   `json:",omitempty"`
	Trend       []userdma.TrendPoint                  `json:",omitempty"`
	Contention  []userdma.InitiationResult            `json:",omitempty"`
	Ring        []userdma.RingDepthResult             `json:",omitempty"`
	RingChurn   []userdma.RingChurnResult             `json:",omitempty"`
	VASweep     []userdma.VACompareRow                `json:",omitempty"`
	IOTLB       []userdma.IOTLBPoint                  `json:",omitempty"`
	Paging      []userdma.PagingResult                `json:",omitempty"`
	// Steer is the steered-sweep scoreboard: per search, the probed-vs-
	// grid cell counts and the verdict the adaptive policy landed on.
	Steer []SteerRow `json:",omitempty"`
	// Metrics is the per-method observability registry snapshot after a
	// fixed initiation burst: exact event counts, so benchdiff flags any
	// behavioural change even when timings agree.
	Metrics  map[string][]obs.MetricValue `json:",omitempty"`
	Fault    []FaultPoint                 `json:",omitempty"`
	Recovery []RecoveryPoint              `json:",omitempty"`
}

// Section is one experiment a tool prints, with the Params it runs
// under.
type Section struct {
	Name   string
	Params Params
}

// BenchSections pairs each named section with the Params cmd/dmabench
// runs it under at p: the comparators section measures the four
// published comparators. cmd/benchdiff regenerates `make baseline`
// through it too, so both build the same document.
func BenchSections(p Params, names ...string) []Section {
	secs := make([]Section, len(names))
	for i, name := range names {
		secs[i] = Section{Name: name, Params: p}
		if name == "comparators" {
			secs[i].Params.Methods = ComparatorMethods()[:4]
		}
	}
	return secs
}

// Document runs each section in order and writes it into one Doc whose
// header records iters (the tool's -iters).
func Document(iters int, secs []Section) (*Doc, error) {
	d := &Doc{Machine: MachineName(), Iters: iters}
	for _, s := range secs {
		e, ok := Lookup(s.Name)
		if !ok {
			return nil, fmt.Errorf("exp: unknown experiment %q (use -list)", s.Name)
		}
		if e.JSON == nil {
			return nil, fmt.Errorf("exp: experiment %q has no %v section", s.Name, JSON)
		}
		r, err := Run(e, s.Params)
		if err != nil {
			return nil, err
		}
		e.JSON(r, s.Params, d)
	}
	return d, nil
}

// WriteJSON writes v as the tools' indented JSON document.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
