package proc

// World snapshot/restore support (see internal/machine). A runner can
// only be snapshotted quiescent: every spawned process Done, so no
// guest coroutine is live and no slot is outstanding. Done
// Process records are immutable from then on, which lets the snapshot,
// the origin runner and any number of restored clones share them by
// pointer — their address spaces included, under the contract that
// nobody remaps a pre-snapshot process's pages after the snapshot.

import (
	"fmt"

	"uldma/internal/vm"
)

// RunnerSnapshot captures a Runner's scheduling state. See
// Runner.Snapshot.
type RunnerSnapshot struct {
	procs     []*Process // the (all-Done) process list at snapshot time
	spaces    []*vm.ASSnapshot
	nextPID   PID
	current   *Process
	hooks     int // switch-hook chain length at snapshot time
	exitHooks int
	ctr       Counters
}

// Snapshot captures the process list, PID counter, scheduling counters
// and hook-chain lengths. It fails unless every process is Done: a live
// guest coroutine cannot be captured.
func (r *Runner) Snapshot() (*RunnerSnapshot, error) {
	for _, p := range r.procs {
		if p.state != Done {
			return nil, fmt.Errorf("proc: cannot snapshot: process %q (pid %d) not done", p.name, p.pid)
		}
	}
	s := &RunnerSnapshot{
		procs:     append([]*Process(nil), r.procs...),
		spaces:    make([]*vm.ASSnapshot, len(r.procs)),
		nextPID:   r.nextPID,
		current:   r.current,
		hooks:     len(r.hooks),
		exitHooks: len(r.exitHooks),
		ctr:       r.ctr,
	}
	for i, p := range r.procs {
		if p.as != nil {
			s.spaces[i] = p.as.Snapshot()
		}
	}
	return s, nil
}

// Restore rewinds this runner (the snapshot's origin) in place:
// processes spawned after the snapshot are discarded (they must be
// Done), the hook chains are truncated to their snapshot lengths, and
// the snapshot-era processes' address spaces are rewound. Must not be
// used while clones restored from the same snapshot are running — the
// address-space rewind would race with their page-table reads; clones
// instead rely on the post-snapshot immutability of those spaces.
func (r *Runner) Restore(s *RunnerSnapshot) error {
	if len(s.procs) > len(r.procs) {
		return fmt.Errorf("proc: restore: snapshot has %d processes, runner has %d", len(s.procs), len(r.procs))
	}
	for i, p := range s.procs {
		if r.procs[i] != p {
			return fmt.Errorf("proc: restore: process %d diverged from the snapshot (not the origin runner?)", i)
		}
	}
	for _, p := range r.procs[len(s.procs):] {
		if p.state != Done {
			return fmt.Errorf("proc: restore: post-snapshot process %q (pid %d) not done", p.name, p.pid)
		}
	}
	for i, p := range s.procs {
		if s.spaces[i] != nil {
			if err := p.as.Restore(s.spaces[i]); err != nil {
				return err
			}
		}
	}
	for i := len(s.procs); i < len(r.procs); i++ {
		r.procs[i] = nil
	}
	r.procs = r.procs[:len(s.procs)]
	if s.hooks > len(r.hooks) || s.exitHooks > len(r.exitHooks) {
		return fmt.Errorf("proc: restore: hook chains shrank since the snapshot")
	}
	r.hooks = r.hooks[:s.hooks]
	r.exitHooks = r.exitHooks[:s.exitHooks]
	r.nextPID = s.nextPID
	r.current = s.current
	r.ctr = s.ctr
	return nil
}

// Adopt wires the snapshot's process list into a freshly built runner
// (a clone of the snapshot's origin machine). The Done processes are
// shared by pointer — they are immutable — and the hook chains must
// already have been rebuilt to their snapshot lengths by re-running the
// same setup calls (the kernel re-enables its hooks on the clone), so
// the chain lengths are verified, not restored.
func (r *Runner) Adopt(s *RunnerSnapshot) error {
	if len(r.procs) != 0 {
		return fmt.Errorf("proc: adopt: runner already has %d processes", len(r.procs))
	}
	if len(r.hooks) != s.hooks || len(r.exitHooks) != s.exitHooks {
		return fmt.Errorf("proc: adopt: clone has %d/%d hooks, snapshot had %d/%d — custom hooks cannot be cloned",
			len(r.hooks), len(r.exitHooks), s.hooks, s.exitHooks)
	}
	r.procs = append(r.procs, s.procs...)
	r.nextPID = s.nextPID
	r.current = s.current
	r.ctr = s.ctr
	return nil
}
