package proc

import "fmt"

// Exploration: bounded model checking of scheduler interleavings.
//
// The races this repository studies live in windows of at most a few
// instructions, so exhaustively enumerating every schedule of two short
// guest programs is tractable — and much stronger than sampling. The
// explorer builds a fresh world per schedule (simulations are cheap and
// deterministic), extends the schedule one decision at a time, and
// prunes branches that name finished processes.

// World is one disposable universe for exploration: a runner plus a
// check to run after the schedule completes.
type World struct {
	// Runner schedules the world's processes.
	Runner *Runner
	// Check inspects the final state; returning an error marks the
	// schedule as a counterexample.
	Check func() error
	// Finish, if non-nil, schedules the world once the explicit
	// decisions are exhausted. The default is round-robin with an
	// effectively infinite quantum — first-spawned-runs-to-block —
	// which suits short straight-line guests. Worlds whose processes
	// POLL each other (spin loops that never block) must supply a
	// small-quantum policy here, or the first spinner starves the rest.
	// Each factory call builds a fresh world, so the policy instance is
	// private to one schedule.
	Finish Policy
}

// finish returns the world's finishing policy.
func (w *World) finish() Policy {
	if w.Finish != nil {
		return w.Finish
	}
	return NewRoundRobin(1 << 20)
}

// WorldFactory builds a fresh, identical world. It must create the same
// processes in the same order each time (the explorer addresses them by
// spawn index).
type WorldFactory func() (*World, error)

// ExploreResult summarizes an exploration.
type ExploreResult struct {
	// Schedules is how many complete schedules were executed.
	Schedules int
	// Counterexample is the first failing schedule (spawn-index per
	// slot), nil if every schedule passed.
	Counterexample []int
	// CounterexampleErr is Check's error for the counterexample.
	CounterexampleErr error
}

// Explore runs every schedule of the factory's processes up to maxDepth
// explicit decisions (after which the remaining slots run first-spawned
// -first). Exploration stops at the first counterexample.
//
// The schedule alphabet at each step is the set of runnable processes;
// a prefix is extended depth-first. Each probe replays its prefix on a
// fresh world, so guest programs may branch on loaded values — the tree
// is re-discovered run by run.
func Explore(factory WorldFactory, maxDepth int, maxSchedules int) (ExploreResult, error) {
	res := ExploreResult{}
	if maxSchedules <= 0 {
		maxSchedules = 1 << 20
	}
	var dfs func(prefix []int) (bool, error)
	dfs = func(prefix []int) (bool, error) {
		if res.Schedules >= maxSchedules {
			return false, fmt.Errorf("proc: exploration budget (%d schedules) exhausted", maxSchedules)
		}
		// Replay the prefix on a fresh world to discover the frontier.
		w, err := factory()
		if err != nil {
			return false, err
		}
		alive, err := replay(w.Runner, prefix)
		if err != nil {
			return false, err
		}
		if len(alive) == 0 || len(prefix) >= maxDepth {
			// Finish deterministically and check.
			if err := w.Runner.Run(w.finish(), 1<<62); err != nil {
				return false, err
			}
			res.Schedules++
			if err := w.Check(); err != nil {
				res.Counterexample = append([]int(nil), prefix...)
				res.CounterexampleErr = err
				return true, nil
			}
			return false, nil
		}
		// This world only served to discover the frontier; tear its
		// guest coroutines down before branching.
		w.Runner.Shutdown()
		for _, idx := range alive {
			next := append(append([]int(nil), prefix...), idx)
			found, err := dfs(next)
			if err != nil || found {
				return found, err
			}
		}
		return false, nil
	}
	_, err := dfs(nil)
	return res, err
}

// replay grants the prefix's slots (by spawn index) and returns the
// spawn indices still runnable afterwards.
func replay(r *Runner, prefix []int) ([]int, error) {
	for step, idx := range prefix {
		procs := r.Processes()
		if idx < 0 || idx >= len(procs) {
			return nil, fmt.Errorf("proc: replay step %d: index %d out of range", step, idx)
		}
		p := procs[idx]
		if p.State() == Done {
			// A shorter-than-expected program: the branch vanished; the
			// caller treats this prefix as covered by its parent.
			continue
		}
		r.Step(p)
	}
	var alive []int
	for i, p := range r.Processes() {
		if p.State() != Done {
			alive = append(alive, i)
		}
	}
	return alive, nil
}
