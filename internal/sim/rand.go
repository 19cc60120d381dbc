package sim

// Rand is a small, fast, deterministic pseudo-random source (SplitMix64).
// The simulator uses it for seeded preemption schedules and for minting
// DMA protection keys. We deliberately avoid math/rand so that a seed
// pins the exact stream across Go releases — experiment scripts record
// seeds, and replaying a seed must replay the run.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform pseudo-random int in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free variant is overkill here;
	// simple modulo bias is ~2^-50 for the n values we use (< 2^14).
	return int(r.Uint64() % uint64(n))
}

// State returns the generator's internal state so a snapshot can pin
// the exact position in the stream. Restoring with SetState replays the
// identical remaining sequence.
func (r *Rand) State() uint64 { return r.state }

// SetState overwrites the generator's internal state. Used by world
// snapshot/restore; pair with State.
func (r *Rand) SetState(s uint64) { r.state = s }
