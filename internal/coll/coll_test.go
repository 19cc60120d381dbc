package coll

import (
	"fmt"
	"testing"

	userdma "uldma/internal/core"
	"uldma/internal/net"
	"uldma/internal/proc"
)

// world wires an n-rank communicator whose rank bodies are set after
// construction.
type world struct {
	cluster *net.Cluster
	procs   []*proc.Process
	comms   []*Comm
	bodies  []func(c *proc.Context, comm *Comm) error
}

func newWorld(t *testing.T, n int) *world {
	t.Helper()
	cluster, err := net.NewCluster(n, userdma.ConfigFor(userdma.ExtShadow{}), net.Gigabit())
	if err != nil {
		t.Fatal(err)
	}
	w := &world{cluster: cluster, bodies: make([]func(*proc.Context, *Comm) error, n)}
	for i := 0; i < n; i++ {
		i := i
		w.procs = append(w.procs, cluster.Nodes[i].NewProcess(fmt.Sprintf("rank%d", i),
			func(c *proc.Context) error { return w.bodies[i](c, w.comms[i]) }))
	}
	if w.comms, err = New(cluster, w.procs); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *world) run(t *testing.T) {
	t.Helper()
	if err := w.cluster.RunRoundRobin(4, 1<<62); err != nil {
		t.Fatal(err)
	}
	for i, p := range w.procs {
		if p.Err() != nil {
			t.Fatalf("rank %d: %v", i, p.Err())
		}
	}
}

// TestBarrierSynchronizes: no rank may observe another rank still in an
// earlier phase after leaving the barrier. The shared phase vector is
// plain Go state — updated strictly between instructions, so it is a
// sound witness.
func TestBarrierSynchronizes(t *testing.T) {
	const n, rounds = 3, 5
	w := newWorld(t, n)
	phase := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		w.bodies[i] = func(c *proc.Context, comm *Comm) error {
			for r := 1; r <= rounds; r++ {
				// Staggered pre-barrier work.
				c.Spin(int64(1000 * (i + 1) * r))
				phase[i] = r
				if err := comm.Barrier(c); err != nil {
					return err
				}
				// After the barrier, EVERY rank must have reached phase r.
				for j := 0; j < n; j++ {
					if phase[j] < r {
						return fmt.Errorf("rank %d left barrier %d while rank %d is at phase %d",
							i, r, j, phase[j])
					}
				}
			}
			return nil
		}
	}
	w.run(t)
}

func TestAllReduceSum(t *testing.T) {
	const n, rounds = 4, 3
	w := newWorld(t, n)
	results := make([][]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		w.bodies[i] = func(c *proc.Context, comm *Comm) error {
			for r := 0; r < rounds; r++ {
				v := uint64((i + 1) * (r + 1)) // distinct contributions per round
				total, err := comm.AllReduceSum(c, v)
				if err != nil {
					return err
				}
				results[i] = append(results[i], total)
			}
			return nil
		}
	}
	w.run(t)
	for r := 0; r < rounds; r++ {
		want := uint64(0)
		for i := 0; i < n; i++ {
			want += uint64((i + 1) * (r + 1))
		}
		for i := 0; i < n; i++ {
			if results[i][r] != want {
				t.Fatalf("rank %d round %d: total %d, want %d", i, r, results[i][r], want)
			}
		}
	}
}

// TestMixedCollectiveSequence interleaves barriers and reductions in
// one program, a reduction only rank 0 contributes to among them — the
// epoch machinery must stay in step.
func TestMixedCollectiveSequence(t *testing.T) {
	const n = 3
	w := newWorld(t, n)
	finals := make([]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		w.bodies[i] = func(c *proc.Context, comm *Comm) error {
			if err := comm.Barrier(c); err != nil {
				return err
			}
			sum, err := comm.AllReduceSum(c, uint64(i+1)) // 1+2+3 = 6
			if err != nil {
				return err
			}
			v := uint64(0)
			if i == 0 {
				v = sum * 10 // rank 0 alone distributes the scaled sum
			}
			out, err := comm.AllReduceSum(c, v)
			if err != nil {
				return err
			}
			if err := comm.Barrier(c); err != nil {
				return err
			}
			finals[i] = out
			return nil
		}
	}
	w.run(t)
	for i, v := range finals {
		if v != 60 {
			t.Fatalf("rank %d final = %d, want 60", i, v)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cluster, err := net.NewCluster(2, userdma.ConfigFor(userdma.ExtShadow{}), net.Gigabit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cluster, nil); err == nil {
		t.Fatal("zero ranks accepted")
	}
	procs := make([]*proc.Process, 3) // more ranks than nodes
	if _, err := New(cluster, procs); err == nil {
		t.Fatal("too many ranks accepted")
	}
}
