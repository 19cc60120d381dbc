package exp

// The concrete steered searches behind `dmabench -steer`, `report
// -steer` and `oslat -steer`: four adaptive policies on the RunSteered
// driver, each replacing an exhaustive registry grid.
//
//   - breakeven: per-method binary search of the first size whose
//     transfer outweighs its initiation. The predicate is monotone in
//     size (initiation is size-independent, wire time grows), so a
//     bisect lane per method lands on the exhaustive grid's exact
//     crossover in ceil(log2(n+1)) probes instead of n.
//   - paging: the recovery-policy grid walked wave by wave up the
//     working-set axis, with a live feed (userdma.PagingBenchLive)
//     sampling fault/eviction watch cells inside every cell; a policy
//     strictly dominated on BOTH p99 and goodput for two consecutive
//     waves is aborted and its remaining cells never run.
//   - faultzoom: the faultsweep drop axis probed coarsely, then
//     repeatedly split where the watched p99 jumps the most — grid
//     zoom toward the latency knee at a resolution the uniform grid
//     would need several times the cells to reach.
//   - oslat: an iteration ladder for the null-syscall mean, stopped at
//     the first rung whose mean agrees with the previous one within
//     0.5% — convergence instead of a fixed worst-case count.
//
// Every search is seed-replayable and worker-count invariant (the
// driver's contract), and every decision lands in the DecisionLog and,
// through it, on the obs trace spine (CatSteer) for Perfetto export.

import (
	"fmt"
	"math"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/fault"
	"uldma/internal/machine"
	"uldma/internal/msg"
	"uldma/internal/obs"
	"uldma/internal/sim"
	"uldma/internal/stats"
)

// fmtSize renders a byte count the way the break-even table heads its
// columns ("64B", "16KiB").
func fmtSize(s uint64) string {
	if s >= 1024 {
		return fmt.Sprintf("%dKiB", s/1024)
	}
	return fmt.Sprintf("%dB", s)
}

// --- breakeven: bisect the monotone frontier ---

// FrontierOutcome is one method's verdict of the steered break-even
// search.
type FrontierOutcome struct {
	Method    string
	Crossover uint64 // first size whose transfer >= initiation
	Found     bool
	Probes    int
}

// frontierLane is one method's bisect state over the size axis: the
// classic first-true search on [0, n] (position n = "no size
// crosses"), one probe per round, lockstep across lanes.
type frontierLane struct {
	method userdma.Method
	snap   *machine.Snapshot
	lo, hi int // open bracket: the first true index lies in [lo, hi]
	probes int
	done   bool
}

// FrontierPolicy bisects the break-even frontier per method. Single
// use: one instance per RunSteered call.
type FrontierPolicy struct {
	sizes []uint64
	lanes []*frontierLane
	last  []int // lane index per cell of the previous batch
}

// NewFrontierPolicy builds the policy over the canonical method and
// size axes.
func NewFrontierPolicy(sizes []uint64) *FrontierPolicy {
	return &FrontierPolicy{sizes: sizes}
}

func (f *FrontierPolicy) label(lane *frontierLane, size uint64) string {
	return lane.method.Name() + "/" + fmtSize(size)
}

// Next implements SteerPolicy: consume the previous round's probe per
// lane, shrink each bracket, and propose the next midpoints.
func (f *FrontierPolicy) Next(r int, history []CellResult, log *DecisionLog) ([]Cell, error) {
	if r == 0 {
		for _, method := range BreakEvenMethods() {
			snap, err := userdma.NewWorld(userdma.ConfigFor(method))
			if err != nil {
				return nil, err
			}
			f.lanes = append(f.lanes, &frontierLane{
				method: method, snap: snap, lo: 0, hi: len(f.sizes),
			})
		}
	} else {
		// The previous batch's results are the history's tail, one per
		// lane that probed, in lane order.
		tail := history[len(history)-len(f.last):]
		for i, laneIdx := range f.last {
			lane := f.lanes[laneIdx]
			pt := tail[i].Obs[0].(userdma.BreakEvenPoint)
			mid := (lane.lo + lane.hi) / 2
			if pt.Transfer >= pt.Initiation {
				lane.hi = mid
			} else {
				lane.lo = mid + 1
			}
			if lane.lo == lane.hi {
				lane.done = true
				if lane.lo < len(f.sizes) {
					log.Add(r, ActAccept, lane.method.Name(),
						fmt.Sprintf("crossover %s after %d probes (exhaustive row: %d cells)",
							fmtSize(f.sizes[lane.lo]), lane.probes, len(f.sizes)))
				} else {
					log.Add(r, ActAccept, lane.method.Name(),
						fmt.Sprintf("no crossover in axis after %d probes", lane.probes))
				}
			}
		}
	}
	var batch []Cell
	f.last = f.last[:0]
	for laneIdx, lane := range f.lanes {
		if lane.done {
			continue
		}
		lane := lane
		mid := (lane.lo + lane.hi) / 2
		size := f.sizes[mid]
		hiLabel := "none"
		if lane.hi < len(f.sizes) {
			hiLabel = fmtSize(f.sizes[lane.hi])
		}
		log.Add(r, ActProbe, f.label(lane, size),
			fmt.Sprintf("bisect: first crossing in [%s, %s]", fmtSize(f.sizes[lane.lo]), hiLabel))
		lane.probes++
		f.last = append(f.last, laneIdx)
		batch = append(batch, Cell{Method: lane.method.Name(), Size: size, Run: func() (Obs, bool, error) {
			pt, err := userdma.BreakEvenCellFrom(lane.snap, lane.method, size)
			if err != nil {
				return nil, false, fmt.Errorf("size %d: %w", size, err)
			}
			return Obs{pt}, false, nil
		}})
	}
	return batch, nil
}

// Outcomes returns the per-method verdicts once the search has run.
func (f *FrontierPolicy) Outcomes() []FrontierOutcome {
	var out []FrontierOutcome
	for _, lane := range f.lanes {
		o := FrontierOutcome{Method: lane.method.Name(), Probes: lane.probes}
		if lane.lo < len(f.sizes) {
			o.Crossover, o.Found = f.sizes[lane.lo], true
		}
		out = append(out, o)
	}
	return out
}

// --- paging: abort dominated recovery policies mid-grid ---

// dominatedLane is one recovery policy's standing in the wave walk.
type dominatedLane struct {
	policy   dma.RecoveryPolicy
	alive    bool
	domCount int // consecutive waves strictly dominated
	probes   int
	samples  int // live-feed samples its cells reported
}

// DominatedPolicy walks the paging grid in working-set waves (every
// live policy probes each wave in parallel) and aborts a policy's
// remaining cells after `patience` consecutive waves in which some
// other live policy strictly dominates it on p99 AND goodput. Every
// probe runs with the live feed attached — the per-transfer watch-cell
// sampling PagingBenchLive provides — so abort reasons quote counters
// that were read while the dominated cell was still running.
type DominatedPolicy struct {
	pages    []int
	budget   int
	xfers    int
	patience int
	lanes    []*dominatedLane
	wave     int
	last     []int // lane index per cell of the previous wave
}

// NewDominatedPolicy builds the policy over the canonical paging axes.
func NewDominatedPolicy() *DominatedPolicy {
	p := &DominatedPolicy{pages: PagingPages(), budget: pagingBudget, xfers: pagingTransfers, patience: 2}
	for _, pol := range PagingPolicies() {
		p.lanes = append(p.lanes, &dominatedLane{policy: pol, alive: true})
	}
	return p
}

// Next implements SteerPolicy: judge the wave that just completed,
// abort freshly dominated lanes, then propose the next wave.
func (d *DominatedPolicy) Next(r int, history []CellResult, log *DecisionLog) ([]Cell, error) {
	if r > 0 {
		tail := history[len(history)-len(d.last):]
		wave := make(map[int]userdma.PagingResult, len(tail))
		for i, laneIdx := range d.last {
			res := tail[i].Obs[0].(userdma.PagingResult)
			wave[laneIdx] = res
			d.lanes[laneIdx].samples += res.LiveSamples
		}
		pages := d.pages[d.wave-1]
		// Judge lanes in batch order: map iteration order must never
		// reach the decision log (worker-count parity is byte-level).
		for _, laneIdx := range d.last {
			a := wave[laneIdx]
			lane := d.lanes[laneIdx]
			dominator := -1
			for _, otherIdx := range d.last {
				if otherIdx == laneIdx {
					continue
				}
				b := wave[otherIdx]
				if b.P99 <= a.P99 && b.GoodputMBps >= a.GoodputMBps &&
					(b.P99 < a.P99 || b.GoodputMBps > a.GoodputMBps) {
					dominator = otherIdx
					break
				}
			}
			if dominator >= 0 {
				lane.domCount++
			} else {
				lane.domCount = 0
			}
			if lane.domCount >= d.patience && lane.alive {
				lane.alive = false
				b := wave[dominator]
				remaining := len(d.pages) - d.wave
				log.Add(r, ActAbort, lane.policy.String(),
					fmt.Sprintf("dominated by %s for %d waves (pages=%d: p99 %.1f vs %.1f µs, goodput %.2f vs %.2f MB/s; live feed: %d samples) — %d cell(s) never run",
						d.lanes[dominator].policy.String(), lane.domCount, pages,
						a.P99.Microseconds(), b.P99.Microseconds(),
						a.GoodputMBps, b.GoodputMBps, lane.samples, remaining))
			}
		}
	}
	if d.wave == len(d.pages) {
		probed := 0
		for _, lane := range d.lanes {
			probed += lane.probes
		}
		log.Add(r, ActAccept, d.survivorNames(),
			fmt.Sprintf("undominated across the axis; probed %d of %d grid cells", probed, len(d.pages)*len(d.lanes)))
		return nil, nil
	}
	pages := d.pages[d.wave]
	d.wave++
	var batch []Cell
	d.last = d.last[:0]
	for laneIdx, lane := range d.lanes {
		if !lane.alive {
			continue
		}
		lane := lane
		log.Add(r, ActProbe, fmt.Sprintf("%s/%dp", lane.policy.String(), pages),
			fmt.Sprintf("wave pages=%d, live feed attached", pages))
		lane.probes++
		d.last = append(d.last, laneIdx)
		batch = append(batch, Cell{
			Method: lane.policy.String(), Size: uint64(pages),
			Config: fmt.Sprintf("budget %d", d.budget),
			Run: func() (Obs, bool, error) {
				// The observer samples the live watch cells after every
				// transfer and never vetoes: the cell's scores must stay
				// byte-identical to the exhaustive grid's (the 0-delta
				// contract), while the sample count proves the feed ran.
				res, err := userdma.PagingBenchLive(lane.policy, pages, d.budget, d.xfers,
					func(userdma.LiveSample) bool { return true })
				if err != nil {
					return nil, false, fmt.Errorf("%v/%d pages: %w", lane.policy, pages, err)
				}
				return Obs{res}, false, nil
			},
		})
	}
	return batch, nil
}

func (d *DominatedPolicy) survivorNames() string {
	var names []string
	for _, lane := range d.lanes {
		if lane.alive {
			names = append(names, lane.policy.String())
		}
	}
	return strings.Join(names, ",")
}

// Survivors returns the policies never aborted.
func (d *DominatedPolicy) Survivors() []string {
	var names []string
	for _, lane := range d.lanes {
		if lane.alive {
			names = append(names, lane.policy.String())
		}
	}
	return names
}

// --- faultzoom: split the drop axis where p99 inflects ---

type zoomPoint struct {
	drop float64
	p99  sim.Time
}

// ZoomPolicy probes the faultsweep drop axis coarsely at one payload
// size, then splits the adjacent pair with the largest p99 jump,
// `splits` times — binary zoom onto the latency knee. The equivalent
// uniform grid (same resolution everywhere) is what Probed is scored
// against.
type ZoomPolicy struct {
	size    uint64
	msgs    int
	splits  int
	points  []zoomPoint // sorted by drop
	last    []float64   // drops of the previous batch, in order
	pending int         // splits performed
	knee    [2]float64
}

// NewZoomPolicy builds the policy: msgs messages per probe at the
// faultsweep's middle payload size, `splits` zoom steps past the
// coarse axis.
func NewZoomPolicy(msgs, splits int) *ZoomPolicy {
	return &ZoomPolicy{size: FaultSizes()[1], msgs: msgs, splits: splits}
}

func (z *ZoomPolicy) cell(drop float64, log *DecisionLog, r int, act Action, why string) Cell {
	label := fmt.Sprintf("drop=%.4f/%dB", drop, z.size)
	log.Add(r, act, label, why)
	// Seeds derive from the probed drop rate, so a replay of the same
	// search probes byte-identical worlds even for split points the
	// exhaustive axis never had.
	seed := 3000 + uint64(math.Round(drop*100000))
	size, msgs := z.size, z.msgs
	return Cell{Config: label, Size: size, Seed: seed, Run: func() (Obs, bool, error) {
		plan := fault.Plan{Default: fault.LinkFaults{Drop: drop}}
		linger := sim.Time(0)
		if drop > 0 {
			linger = 20 * sim.Millisecond
		}
		cfg := msg.ReliableConfig{
			Config: msg.Config{Slots: 4, SlotPayload: int(size)},
			RTO:    500 * sim.Microsecond,
		}
		res, err := reliableStream(plan, seed, cfg, msgs, size, 0, linger)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", label, err)
		}
		return Obs{res.faultPoint(label, drop, size, msgs)}, false, nil
	}}
}

// Next implements SteerPolicy: round 0 probes the coarse axis; each
// later round splits the steepest remaining bracket once.
func (z *ZoomPolicy) Next(r int, history []CellResult, log *DecisionLog) ([]Cell, error) {
	if r == 0 {
		var batch []Cell
		for _, drop := range FaultDrops() {
			z.points = append(z.points, zoomPoint{drop: drop})
			z.last = append(z.last, drop)
			batch = append(batch, z.cell(drop, log, r, ActProbe, "coarse drop axis"))
		}
		return batch, nil
	}
	// Fold the previous batch's p99s into the sorted point set.
	tail := history[len(history)-len(z.last):]
	for i, drop := range z.last {
		for j := range z.points {
			if z.points[j].drop == drop {
				z.points[j].p99 = tail[i].Obs[0].(FaultPoint).P99
			}
		}
	}
	lo, hi := z.steepest()
	if z.pending == z.splits {
		width := z.points[hi].drop - z.points[lo].drop
		z.knee = [2]float64{z.points[lo].drop, z.points[hi].drop}
		log.Add(r, ActAccept, fmt.Sprintf("drop=[%.4f,%.4f]", z.knee[0], z.knee[1]),
			fmt.Sprintf("p99 inflection bracketed to width %.4f (%s -> %s µs); equivalent uniform grid: %d cells",
				width, fmtUs(z.points[lo].p99), fmtUs(z.points[hi].p99), z.EquivalentGrid()))
		return nil, nil
	}
	mid := (z.points[lo].drop + z.points[hi].drop) / 2
	why := fmt.Sprintf("largest p99 jump: %s -> %s µs across [%.4f,%.4f]",
		fmtUs(z.points[lo].p99), fmtUs(z.points[hi].p99), z.points[lo].drop, z.points[hi].drop)
	cell := z.cell(mid, log, r, ActSplit, why)
	// Insert the midpoint keeping the axis sorted.
	z.points = append(z.points, zoomPoint{})
	copy(z.points[hi+1:], z.points[hi:])
	z.points[hi] = zoomPoint{drop: mid}
	z.last = z.last[:0]
	z.last = append(z.last, mid)
	z.pending++
	return []Cell{cell}, nil
}

// steepest returns the adjacent measured pair with the largest |Δp99|
// (ties: lowest index — deterministic).
func (z *ZoomPolicy) steepest() (int, int) {
	best, bestGap := 0, sim.Time(-1)
	for i := 0; i+1 < len(z.points); i++ {
		gap := z.points[i+1].p99 - z.points[i].p99
		if gap < 0 {
			gap = -gap
		}
		if gap > bestGap {
			best, bestGap = i, gap
		}
	}
	return best, best + 1
}

// Knee returns the final bracket around the p99 inflection.
func (z *ZoomPolicy) Knee() (lo, hi float64) { return z.knee[0], z.knee[1] }

// EquivalentGrid is the uniform-axis cell count a non-adaptive sweep
// would need to reach the zoom's final resolution across the whole
// drop range.
func (z *ZoomPolicy) EquivalentGrid() int {
	width := z.knee[1] - z.knee[0]
	if width <= 0 {
		return len(FaultDrops())
	}
	axis := FaultDrops()
	span := axis[len(axis)-1] - axis[0]
	return int(math.Ceil(span/width)) + 1
}

func fmtUs(t sim.Time) string { return fmt.Sprintf("%.1f", t.Microseconds()) }

// --- oslat: converge the iteration ladder ---

// ConvergeLadder is the iteration ladder the steered oslat search
// climbs instead of always paying the full default count.
func ConvergeLadder() []int { return []int{250, 500, 1000, 2000, 4000} }

// convergeTolPct is the relative agreement (percent) between two
// consecutive rungs' null-syscall means that counts as converged.
const convergeTolPct = 0.5

// ConvergePolicy climbs the ladder one rung per round and stops at the
// first rung whose null-syscall mean agrees with the previous rung
// within convergeTolPct.
type ConvergePolicy struct {
	rung  int
	means []sim.Time
	iters int
	mean  sim.Time
}

// NewConvergePolicy builds the policy.
func NewConvergePolicy() *ConvergePolicy { return &ConvergePolicy{} }

// Next implements SteerPolicy.
func (c *ConvergePolicy) Next(r int, history []CellResult, log *DecisionLog) ([]Cell, error) {
	ladder := ConvergeLadder()
	if r > 0 {
		mean := history[len(history)-1].Obs[0].(Row).Mean
		c.means = append(c.means, mean)
		if n := len(c.means); n >= 2 {
			prev, cur := c.means[n-2], c.means[n-1]
			deltaPct := 100 * math.Abs(float64(cur)-float64(prev)) / float64(prev)
			if deltaPct <= convergeTolPct {
				c.iters, c.mean = ladder[c.rung-1], cur
				log.Add(r, ActAccept, fmt.Sprintf("iters=%d", c.iters),
					fmt.Sprintf("null syscall %s µs stable (Δ %.3f%% vs previous rung); ladder probed %d of %d",
						fmtUs(cur), deltaPct, c.rung, len(ladder)))
				return nil, nil
			}
		}
	}
	if c.rung == len(ladder) {
		c.iters, c.mean = ladder[c.rung-1], c.means[len(c.means)-1]
		log.Add(r, ActAccept, fmt.Sprintf("iters=%d", c.iters), "ladder exhausted without convergence")
		return nil, nil
	}
	iters := ladder[c.rung]
	c.rung++
	log.Add(r, ActProbe, fmt.Sprintf("iters=%d", iters), "converge: null-syscall mean")
	return []Cell{{Config: fmt.Sprintf("iters=%d", iters), Run: func() (Obs, bool, error) {
		return oslatSyscalls(iters)
	}}}, nil
}

// Converged returns the accepted rung and its mean.
func (c *ConvergePolicy) Converged() (iters int, mean sim.Time) { return c.iters, c.mean }

// --- the suite the tools print ---

func init() {
	Register(&Experiment{
		Name: "steer",
		Doc:  "steered sweeps: adaptive searches replacing the breakeven, paging, faultsweep and oslat grids",
		Cells: func(p Params) ([]Cell, error) {
			// One cell: each search fans its own probes out on p.Procs.
			return []Cell{{Run: func() (Obs, bool, error) {
				s, err := RunSteerSuite(p, nil)
				return Obs{s}, false, err
			}}}, nil
		},
		Render: map[Format]RenderFunc{
			Text:     steerText,
			Markdown: steerMarkdown,
		},
		JSON: func(r *Result, _ Params, d *Doc) { d.Steer = steerSuite(r).SteerRows() },
	})
}

func steerSuite(r *Result) *SteerSuite { return Collect[*SteerSuite](r)[0] }

// SteerSuite bundles the four steered searches' results and verdicts.
type SteerSuite struct {
	BreakEven      *SteerResult
	BreakEvenLanes []FrontierOutcome
	Paging         *SteerResult
	Survivors      []string
	Zoom           *SteerResult
	KneeLo, KneeHi float64
	ZoomGrid       int
	OSLat          *SteerResult
	OSLatIters     int
	OSLatMean      sim.Time
}

// steerMsgs sizes the zoom probes: Params.Msgs when set, else the
// faultsweep default.
func steerMsgs(p Params) int { return faultMsgs(p) }

// steerZoomSplits is the number of zoom steps past the coarse axis.
const steerZoomSplits = 3

// SteeredBreakEven runs the bisect search. The grid it replaces is the
// exhaustive breakeven experiment: methods × sizes.
func SteeredBreakEven(p Params, tr *obs.Trace) (*SteerResult, []FrontierOutcome, error) {
	pol := NewFrontierPolicy(userdma.DefaultSizes)
	s := &Steered{Name: "breakeven", GridCells: len(BreakEvenMethods()) * len(userdma.DefaultSizes), Policy: pol}
	res, err := RunSteered(s, p, tr)
	if err != nil {
		return nil, nil, err
	}
	return res, pol.Outcomes(), nil
}

// SteeredPaging runs the dominated-abort walk over the paging grid.
func SteeredPaging(p Params, tr *obs.Trace) (*SteerResult, []string, error) {
	pol := NewDominatedPolicy()
	s := &Steered{Name: "paging", GridCells: len(PagingPolicies()) * len(PagingPages()), Policy: pol}
	res, err := RunSteered(s, p, tr)
	if err != nil {
		return nil, nil, err
	}
	return res, pol.Survivors(), nil
}

// SteeredFaultZoom runs the p99 zoom on the drop axis. The grid it is
// scored against is the uniform axis at the final resolution.
func SteeredFaultZoom(p Params, tr *obs.Trace) (*SteerResult, *ZoomPolicy, error) {
	pol := NewZoomPolicy(steerMsgs(p), steerZoomSplits)
	s := &Steered{Name: "faultzoom", Policy: pol}
	res, err := RunSteered(s, p, tr)
	if err != nil {
		return nil, nil, err
	}
	res.GridCells = pol.EquivalentGrid()
	return res, pol, nil
}

// SteeredOSLat runs the convergence ladder.
func SteeredOSLat(p Params, tr *obs.Trace) (*SteerResult, *ConvergePolicy, error) {
	pol := NewConvergePolicy()
	s := &Steered{Name: "oslat", GridCells: len(ConvergeLadder()), Policy: pol}
	res, err := RunSteered(s, p, tr)
	if err != nil {
		return nil, nil, err
	}
	return res, pol, nil
}

// RunSteerSuite runs all four steered searches (each internally
// parallel on p.Procs) with decisions mirrored to tr when non-nil.
func RunSteerSuite(p Params, tr *obs.Trace) (*SteerSuite, error) {
	s := &SteerSuite{}
	var err error
	if s.BreakEven, s.BreakEvenLanes, err = SteeredBreakEven(p, tr); err != nil {
		return nil, err
	}
	if s.Paging, s.Survivors, err = SteeredPaging(p, tr); err != nil {
		return nil, err
	}
	var zoom *ZoomPolicy
	if s.Zoom, zoom, err = SteeredFaultZoom(p, tr); err != nil {
		return nil, err
	}
	s.KneeLo, s.KneeHi = zoom.Knee()
	s.ZoomGrid = zoom.EquivalentGrid()
	var conv *ConvergePolicy
	if s.OSLat, conv, err = SteeredOSLat(p, tr); err != nil {
		return nil, err
	}
	s.OSLatIters, s.OSLatMean = conv.Converged()
	return s, nil
}

// results summarizes the four searches as (label, result, verdict)
// rows for the renderers.
func (s *SteerSuite) results() []struct {
	Policy  string
	Res     *SteerResult
	Verdict string
} {
	var cross []string
	for _, lane := range s.BreakEvenLanes {
		if lane.Found {
			cross = append(cross, fmt.Sprintf("%s: %s", lane.Method, fmtSize(lane.Crossover)))
		} else {
			cross = append(cross, lane.Method+": none")
		}
	}
	return []struct {
		Policy  string
		Res     *SteerResult
		Verdict string
	}{
		{"bisect frontier", s.BreakEven, strings.Join(cross, "; ")},
		{"dominated-abort", s.Paging, "survivor: " + strings.Join(s.Survivors, ",")},
		{"p99 zoom", s.Zoom, fmt.Sprintf("knee in drop=[%.4f,%.4f]", s.KneeLo, s.KneeHi)},
		{"converge ladder", s.OSLat, fmt.Sprintf("null syscall %s µs @ %d iters", fmtUs(s.OSLatMean), s.OSLatIters)},
	}
}

// steerText renders the suite as the fixed-width section dmabench
// prints.
func steerText(r *Result, _ Params) string {
	s := steerSuite(r)
	var b strings.Builder
	b.WriteString("\nSteered sweeps — adaptive experiment loop on the live obs plane\n")
	b.WriteString("(exhaustive grids replaced by policy-driven probing: same answers, fewer cells)\n\n")
	tb := stats.NewTable("search", "policy", "probed", "grid", "rounds", "result")
	for _, row := range s.results() {
		tb.AddRow(row.Res.Name, row.Policy, row.Res.Probed(), row.Res.GridCells, row.Res.Rounds, row.Verdict)
	}
	b.WriteString(tb.String())
	b.WriteString("\ndecision trace (probe/split/abort/accept, also on the obs spine as cat=steer):\n")
	for _, row := range s.results() {
		fmt.Fprintf(&b, " %s:\n", row.Res.Name)
		b.WriteString(row.Res.Log.Render())
	}
	return b.String()
}

// steerMarkdown renders the suite as cmd/report's section style.
func steerMarkdown(r *Result, _ Params) string {
	s := steerSuite(r)
	var b strings.Builder
	b.WriteString("\n## Online steering — steered sweeps on the live obs plane\n")
	b.WriteString("\n| search | policy | probed | grid | rounds | result |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, row := range s.results() {
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %s |\n",
			row.Res.Name, row.Policy, row.Res.Probed(), row.Res.GridCells, row.Res.Rounds, row.Verdict)
	}
	b.WriteString("\n```\n")
	for _, row := range s.results() {
		fmt.Fprintf(&b, "%s:\n", row.Res.Name)
		b.WriteString(row.Res.Log.Render())
	}
	b.WriteString("```\n")
	return b.String()
}

// SteerRow is one steered search (or break-even lane) as the tools
// serialise it for BENCH_steer.json; Name keys benchdiff's flattening.
type SteerRow struct {
	Name           string
	GridCells      int
	Probed         int
	Rounds         int
	Decisions      int
	Splits         int     `json:",omitempty"`
	Aborts         int     `json:",omitempty"`
	CrossoverBytes uint64  `json:",omitempty"`
	Survivor       string  `json:",omitempty"`
	KneeLo         float64 `json:",omitempty"`
	KneeHi         float64 `json:",omitempty"`
	ConvergedIters int     `json:",omitempty"`
	MeanPs         int64   `json:",omitempty"`
}

// SteerRows converts the suite into wire rows: one per search plus one
// per break-even lane (the per-method crossovers the equivalence test
// pins).
func (s *SteerSuite) SteerRows() []SteerRow {
	rows := []SteerRow{{
		Name: "breakeven", GridCells: s.BreakEven.GridCells, Probed: s.BreakEven.Probed(),
		Rounds: s.BreakEven.Rounds, Decisions: len(s.BreakEven.Log.Decisions()),
	}}
	for _, lane := range s.BreakEvenLanes {
		rows = append(rows, SteerRow{
			Name: "breakeven/" + lane.Method, GridCells: s.BreakEven.GridCells / len(s.BreakEvenLanes),
			Probed: lane.Probes, CrossoverBytes: lane.Crossover,
		})
	}
	rows = append(rows,
		SteerRow{
			Name: "paging", GridCells: s.Paging.GridCells, Probed: s.Paging.Probed(),
			Rounds: s.Paging.Rounds, Decisions: len(s.Paging.Log.Decisions()),
			Aborts: s.Paging.Log.count(ActAbort), Survivor: strings.Join(s.Survivors, ","),
		},
		SteerRow{
			Name: "faultzoom", GridCells: s.Zoom.GridCells, Probed: s.Zoom.Probed(),
			Rounds: s.Zoom.Rounds, Decisions: len(s.Zoom.Log.Decisions()),
			Splits: s.Zoom.Log.count(ActSplit), KneeLo: s.KneeLo, KneeHi: s.KneeHi,
		},
		SteerRow{
			Name: "oslat", GridCells: s.OSLat.GridCells, Probed: s.OSLat.Probed(),
			Rounds: s.OSLat.Rounds, Decisions: len(s.OSLat.Log.Decisions()),
			ConvergedIters: s.OSLatIters, MeanPs: int64(s.OSLatMean),
		},
	)
	return rows
}

// SteerTraceScenario runs the steered suite with a trace spine
// attached and returns the decision track as one Perfetto process —
// what `dmabench -steer -trace-out` exports: the search itself on a
// timeline.
func SteerTraceScenario() ([]obs.PerfettoProcess, error) {
	tr := obs.NewTrace(traceCap, obs.Ring)
	if _, err := RunSteerSuite(Params{Procs: 1}, tr); err != nil {
		return nil, err
	}
	return []obs.PerfettoProcess{{PID: 0, Name: "steered searches (decision track)", Events: tr.Events()}}, nil
}
