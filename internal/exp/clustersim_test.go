package exp

import (
	"fmt"
	"testing"

	userdma "uldma/internal/core"
	"uldma/internal/net"
	"uldma/internal/par"
	"uldma/internal/sim"
)

// TestClusterLatencyTracksSize pins the doorbell's ordering behind its
// payload: the receiver may only see the flag once the payload has
// crossed, so for every method the one-way latency never falls as the
// message grows, and above 1 KiB, where the per-byte cost dominates,
// it grows at the rate the payload crosses. A doorbell that overtakes
// its payload leaves the latency flat in size.
//
// The engine hands a remote payload to the link when the copy ends, so
// each byte costs between the slower stage's time (perfect overlap)
// and both stages' times (store and forward). Both come from the
// engine's and the link's configured bandwidth; the tolerance covers
// the completion poll's granularity (a kernel-level poll is a full
// trap).
func TestClusterLatencyTracksSize(t *testing.T) {
	sizes := []uint64{64, 256, 1024, 4096, 8160}
	const msgs, tol = 4, 0.10
	link := net.Gigabit()
	methods := ClusterMethods()

	lat := make([]sim.Time, len(methods)*len(sizes))
	err := par.Do(len(lat), 2, func(i int) error {
		method, size := methods[i/len(sizes)], sizes[i%len(sizes)]
		l, _, _, err := oneWayLatency(method, link, msgs, size)
		if err != nil {
			return fmt.Errorf("%s at %d B: %w", method.Name(), size, err)
		}
		lat[i] = l
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Nanoseconds per byte of one stage at bw bytes/second.
	perByte := func(bw uint64) float64 { return 1e9 / float64(bw) }
	for mi, method := range methods {
		engine := perByte(userdma.ConfigFor(method).Engine.Bandwidth)
		wire := perByte(link.Bandwidth)
		lo, hi := max(engine, wire)*(1-tol), (engine+wire)*(1+tol)

		row := lat[mi*len(sizes) : (mi+1)*len(sizes)]
		for i := 1; i < len(sizes); i++ {
			if row[i] < row[i-1] {
				t.Errorf("%s: latency falls from %v at %d B to %v at %d B",
					method.Name(), row[i-1], sizes[i-1], row[i], sizes[i])
			}
		}
		a, b := 2, len(sizes)-1 // 1 KiB and the largest size
		slope := (row[b] - row[a]).Nanoseconds() / float64(sizes[b]-sizes[a])
		if slope < lo || slope > hi {
			t.Errorf("%s: latency grows %.1f ns/B from %v at %d B to %v at %d B, want %.1f..%.1f ns/B",
				method.Name(), slope, row[a], sizes[a], row[b], sizes[b], lo, hi)
		}
	}
}
