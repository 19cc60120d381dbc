package fault

import "fmt"

// injectorState is the injector's snapshot, a test hook: RNG position
// and per-link delivery counters, which TestSnapshotRestoreReplays
// rewinds to replay a verdict stream.
type injectorState struct {
	rng  uint64
	sent map[Link]uint64
}

// SnapshotState captures the injector's mutable state.
func (in *Injector) SnapshotState() any {
	sent := make(map[Link]uint64, len(in.sent))
	for k, v := range in.sent {
		sent[k] = v
	}
	return injectorState{rng: in.rng.State(), sent: sent}
}

// RestoreState rewinds to a state captured by SnapshotState.
func (in *Injector) RestoreState(state any) error {
	st, ok := state.(injectorState)
	if !ok {
		return fmt.Errorf("fault: restore: state %T is not an injector snapshot", state)
	}
	in.rng.SetState(st.rng)
	in.sent = make(map[Link]uint64, len(st.sent))
	for k, v := range st.sent {
		in.sent[k] = v
	}
	return nil
}
