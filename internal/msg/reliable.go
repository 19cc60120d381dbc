// Reliable transport: the base channel hardened against a faulty
// fabric (internal/fault). The base protocol assumes the link delivers
// every remote write, in order, exactly once; under loss, duplication
// or reordering it wedges. The reliable channel keeps the paper's
// constraint — ZERO kernel crossings on either side in the steady
// state; credits and acknowledgements stay single-word remote writes —
// and adds, entirely in user mode:
//
//   - a 24-byte slot header [seq | len | csum]: csum binds the sequence
//     number, length and payload bytes, so a receiver can tell "this
//     slot holds message n, complete" from any partial or stale
//     interleaving a faulty link can produce (a commit word that
//     overtook its payload, a late duplicate landing over a reused
//     slot, a stale length);
//   - sender retransmit timers in SIMULATED time with exponential
//     backoff: the cumulative credit word doubles as the ack; when it
//     stalls past the timeout the sender go-back-N retransmits every
//     unacked message from its staging mirror (one staging slot per
//     ring slot, so payloads survive until acknowledged);
//   - receiver-side duplicate/out-of-order rejection: only a
//     checksum-valid slot holding exactly the next expected sequence is
//     consumed, everything else is ignored and retransmission repairs
//     it;
//   - credit-loss recovery: the receiver re-writes its cumulative
//     credit word whenever the channel makes no progress for
//     RecreditAfter — credits are idempotent, so a lost ack costs one
//     timeout, never a deadlock.
//
// Every run is deterministic: timeouts are read off the world's
// simulated clock, so a (plan, seed) pair replays the exact
// retransmission schedule (TestReliableUnderSeededFaultPlans).

package msg

import (
	"fmt"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// rheaderBytes is the reliable slot header: seq (8) + len (8) + csum (8).
const rheaderBytes = 24

// ReliableConfig sizes a reliable channel and its recovery timers. All
// timers are simulated time.
type ReliableConfig struct {
	Config
	// RTO is the initial retransmit timeout (default 200 µs).
	RTO sim.Time
	// MaxRTO caps the exponential backoff (default 3.2 ms).
	MaxRTO sim.Time
	// MaxRetries is the number of retransmit rounds before the sender
	// gives up (default 30).
	MaxRetries int
	// RecreditAfter is how long the receiver waits without progress
	// before re-writing its cumulative credit word (default 1 ms).
	RecreditAfter sim.Time
	// GiveUp bounds a receiver's wait for one message (default 1 s).
	GiveUp sim.Time
}

func (c *ReliableConfig) fill() {
	c.Config.fill()
	if c.RTO == 0 {
		c.RTO = 200 * sim.Microsecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 3200 * sim.Microsecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 30
	}
	if c.RecreditAfter == 0 {
		c.RecreditAfter = sim.Millisecond
	}
	if c.GiveUp == 0 {
		c.GiveUp = sim.Second
	}
}

// rstride is the 64-byte-aligned reliable slot footprint.
func (c ReliableConfig) rstride() int {
	s := rheaderBytes + c.SlotPayload
	return (s + slotAlign - 1) &^ (slotAlign - 1)
}

func (c ReliableConfig) validate() error {
	if c.Slots < 1 || c.SlotPayload < 8 {
		return fmt.Errorf("msg: reliable config %+v out of range", c.Config)
	}
	if c.SlotPayload%8 != 0 {
		return fmt.Errorf("msg: SlotPayload %d must be a multiple of 8", c.SlotPayload)
	}
	if c.Index < 0 || c.Index > maxIndex {
		return fmt.Errorf("msg: channel index %d out of range 0..%d", c.Index, maxIndex)
	}
	if uint64(c.Slots*c.rstride()) > uint64(indexStride) {
		return fmt.Errorf("msg: reliable ring of %d x %dB slots exceeds the per-channel window", c.Slots, c.SlotPayload)
	}
	return nil
}

// ringPages is how many pages the ring (and the staging mirror, which
// has the same footprint) occupies.
func (c ReliableConfig) ringPages(pageSize uint64) int {
	total := uint64(c.Slots * c.rstride())
	return int((total + pageSize - 1) / pageSize)
}

// RCounters counts reliable-endpoint activity in obs cells.
type RCounters struct {
	Messages    obs.Counter
	Bytes       obs.Counter
	FlowStalls  obs.Counter // sender waits on a full ring
	Timeouts    obs.Counter // sender retransmit rounds fired
	Retransmits obs.Counter // individual messages retransmitted
	CsumRejects obs.Counter // receiver saw the right seq over wrong bytes
	Recredits   obs.Counter // receiver re-wrote its credit word
}

// RSender is the reliable sending endpoint. Use it only from its own
// process's guest code.
type RSender struct {
	cfg      ReliableConfig
	va       vaSet
	h        *userdma.Handle
	clock    *sim.Clock
	sent     uint64
	credited uint64
	lens     []uint64
	csums    []uint64
	rto      sim.Time
	deadline sim.Time
	tries    int
	ctr      RCounters
	sm       *machine.Machine // for the trace spine (sm.Tracer, read per event)
}

// RReceiver is the reliable receiving endpoint.
type RReceiver struct {
	cfg      ReliableConfig
	va       vaSet
	clock    *sim.Clock
	consumed uint64
	ctr      RCounters
	rm       *machine.Machine // for the trace spine (rm.Tracer, read per event)
}

// Counters returns the sender's counters.
func (s *RSender) Counters() RCounters { return s.ctr }

// Counters returns the receiver's counters.
func (r *RReceiver) Counters() RCounters { return r.ctr }

// NewReliableChannel wires a unidirectional reliable channel from
// senderProc (on sm) to receiverProc (on rm, cluster node rxNode). The
// setup-time kernel work mirrors NewChannel, with one difference: the
// sender's staging area is a full ring MIRROR (one staging slot per
// ring slot) so unacknowledged payloads survive for retransmission.
func NewReliableChannel(sm *machine.Machine, senderProc *proc.Process, h *userdma.Handle,
	rm *machine.Machine, receiverProc *proc.Process, rxNode int, cfg ReliableConfig) (*RSender, *RReceiver, error) {

	cfg.fill()
	pageSize := sm.Cfg.PageSize
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if h == nil {
		return nil, nil, fmt.Errorf("msg: nil DMA handle")
	}
	va := basesFor(cfg.Index)
	pages := cfg.ringPages(pageSize)

	// Receiver side: mailbox ring pages (local, readable).
	rk := rm.Kernel
	var mailboxFrames []phys.Addr
	for i := 0; i < pages; i++ {
		mbVA := va.mailboxR + vm.VAddr(uint64(i)*pageSize)
		frame, err := rk.AllocPage(receiverProc.AddressSpace(), mbVA, vm.Read|vm.Write)
		if err != nil {
			return nil, nil, fmt.Errorf("msg: mailbox page %d: %w", i, err)
		}
		mailboxFrames = append(mailboxFrames, frame)
	}
	for i := 1; i < pages; i++ {
		if mailboxFrames[i] != mailboxFrames[i-1]+phys.Addr(pageSize) {
			return nil, nil, fmt.Errorf("msg: mailbox frames not contiguous")
		}
	}

	// Sender side: staging mirror pages + shadows, credit page, remote
	// window onto the mailbox + shadows.
	sk := sm.Kernel
	var stagingFrames []phys.Addr
	for i := 0; i < pages; i++ {
		stVA := va.staging + vm.VAddr(uint64(i)*pageSize)
		frame, err := sk.AllocPage(senderProc.AddressSpace(), stVA, vm.Read|vm.Write)
		if err != nil {
			return nil, nil, fmt.Errorf("msg: staging page %d: %w", i, err)
		}
		if err := sk.MapShadow(senderProc, stVA); err != nil {
			return nil, nil, err
		}
		stagingFrames = append(stagingFrames, frame)
	}
	for i := 1; i < pages; i++ {
		if stagingFrames[i] != stagingFrames[i-1]+phys.Addr(pageSize) {
			return nil, nil, fmt.Errorf("msg: staging frames not contiguous")
		}
	}
	creditFrame, err := sk.AllocPage(senderProc.AddressSpace(), va.credit, vm.Read|vm.Write)
	if err != nil {
		return nil, nil, fmt.Errorf("msg: credit page: %w", err)
	}
	for i := 0; i < pages; i++ {
		wVA := va.mailboxW + vm.VAddr(uint64(i)*pageSize)
		if err := sk.MapRemote(senderProc, wVA, rxNode, mailboxFrames[i]); err != nil {
			return nil, nil, fmt.Errorf("msg: mailbox window: %w", err)
		}
		if err := sk.MapShadow(senderProc, wVA); err != nil {
			return nil, nil, err
		}
	}

	// Receiver's window onto the sender's credit word.
	if err := rk.MapRemote(receiverProc, va.creditW, sm.NodeID, creditFrame); err != nil {
		return nil, nil, fmt.Errorf("msg: credit window: %w", err)
	}

	s := &RSender{
		cfg: cfg, va: va, h: h, clock: sm.Clock, sm: sm,
		lens:  make([]uint64, cfg.Slots),
		csums: make([]uint64, cfg.Slots),
	}
	r := &RReceiver{cfg: cfg, va: va, clock: rm.Clock, rm: rm}
	return s, r, nil
}

// mix64 is the SplitMix64 finalizer — the checksum's mixing function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// checksum binds a message's sequence number, length and payload bytes.
// Sender and receiver compute it over the same byte view, so any stale
// or partial slot contents mismatch.
func checksum(seq uint64, data []byte) uint64 {
	h := mix64(seq ^ 0x9e3779b97f4a7c15)
	for off := 0; off < len(data); off += 8 {
		var w uint64
		for b := 0; b < 8 && off+b < len(data); b++ {
			w |= uint64(data[off+b]) << (8 * b)
		}
		h = mix64(h ^ w ^ uint64(off)*0x2545f4914f6cdd1d)
	}
	return mix64(h ^ uint64(len(data)))
}

// The retransmit timer is a tiny pure state machine over (credited,
// sent, rto, deadline, tries) — split out of pump so the arm/reset
// path is directly benchmarkable: it runs on EVERY Send/Flush wait
// iteration of every reliable channel, so it must stay at 0 allocs/op
// (BenchmarkRSenderTimerPump asserts the pin).

// armTimer starts a fresh retransmit timer: first unacked message in
// flight, initial RTO, no rounds burned.
func (s *RSender) armTimer(now sim.Time) {
	s.tries = 0
	s.rto = s.cfg.RTO
	s.deadline = now + s.rto
}

// noteCredit folds a newly read credit word into the timer state.
// Monotonic: a reordered stale credit must not regress the ack. Any
// forward progress re-arms the timer from scratch.
func (s *RSender) noteCredit(credited uint64, now sim.Time) {
	if credited > s.credited {
		s.credited = credited
		s.armTimer(now)
	}
}

// timerExpired reports whether the retransmit deadline has passed with
// messages still unacknowledged.
func (s *RSender) timerExpired(now sim.Time) bool {
	return s.credited < s.sent && now >= s.deadline
}

// backoffTimer doubles the timeout after a retransmit round, capped at
// MaxRTO, and re-arms the deadline.
func (s *RSender) backoffTimer(now sim.Time) {
	s.rto *= 2
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
	s.deadline = now + s.rto
}

// pump runs the sender's ack/timer machinery: it polls the credit word
// (the cumulative ack), and when the retransmit deadline passes with
// messages still unacknowledged it go-back-N retransmits them and
// doubles the timeout. Called from every Send/Flush wait iteration —
// all user-mode instructions plus a host-free clock read.
func (s *RSender) pump(c *proc.Context) error {
	credited, err := c.Load(s.va.credit, phys.Size64)
	if err != nil {
		return err
	}
	s.noteCredit(credited, s.clock.Now())
	if !s.timerExpired(s.clock.Now()) {
		return nil // all acked, or the deadline is still in the future
	}
	s.tries++
	if s.tries > s.cfg.MaxRetries {
		return fmt.Errorf("msg: reliable sender gave up after %d retransmit rounds (seq %d..%d unacked)",
			s.cfg.MaxRetries, s.credited+1, s.sent)
	}
	s.ctr.Timeouts.Inc()
	if tr := s.sm.Tracer; tr != nil {
		tr.Instant(s.clock.Now(), obs.CatMsg, "timeout",
			int32(s.sm.NodeID), -1, s.credited+1, s.sent, uint64(s.tries))
	}
	for seq := s.credited + 1; seq <= s.sent; seq++ {
		if err := s.transmit(c, seq); err != nil {
			return err
		}
		s.ctr.Retransmits.Inc()
		if tr := s.sm.Tracer; tr != nil {
			tr.Instant(s.clock.Now(), obs.CatMsg, "retransmit",
				int32(s.sm.NodeID), -1, seq, 0, 0)
		}
	}
	s.backoffTimer(s.clock.Now())
	return nil
}

// transmit (re)sends one message from the staging mirror: payload by
// user-level DMA, then csum, len and finally seq — the commit word —
// by single-word remote writes.
func (s *RSender) transmit(c *proc.Context, seq uint64) error {
	slot := (seq - 1) % uint64(s.cfg.Slots)
	stride := vm.VAddr(s.cfg.rstride())
	srcVA := s.va.staging + vm.VAddr(slot)*stride
	slotVA := s.va.mailboxW + vm.VAddr(slot)*stride
	length := s.lens[slot]
	if length > 0 {
		st, err := s.h.DMA(c, srcVA, slotVA+rheaderBytes, length)
		if err != nil {
			return err
		}
		if st == dma.StatusFailure {
			return fmt.Errorf("msg: payload DMA refused")
		}
		// The commit word must not overtake the payload on a healthy
		// link: wait for the DMA to drain before writing headers. (On a
		// faulty link the checksum catches whatever arrives anyway.)
		if err := s.h.Wait(c, 1_000_000); err != nil {
			return err
		}
	}
	if err := c.Store(slotVA+16, phys.Size64, s.csums[slot]); err != nil {
		return err
	}
	if err := c.Store(slotVA+8, phys.Size64, length); err != nil {
		return err
	}
	if err := c.Store(slotVA, phys.Size64, seq); err != nil {
		return err
	}
	return c.MB()
}

// Send transmits data (len <= MaxPayload): it stages the payload in the
// slot's staging-mirror cell (where it survives until acknowledged),
// transmits, and arms the retransmit timer. It blocks — polling, while
// pumping the timer machinery — when the ring is full. Entirely user
// mode; zero kernel crossings.
func (s *RSender) Send(c *proc.Context, data []byte) error {
	if len(data) > s.cfg.SlotPayload {
		return fmt.Errorf("msg: message of %d bytes exceeds slot payload %d", len(data), s.cfg.SlotPayload)
	}
	// Flow control: wait for a free slot, keeping retransmissions going.
	for {
		if err := s.pump(c); err != nil {
			return err
		}
		if s.sent-s.credited < uint64(s.cfg.Slots) {
			break
		}
		s.ctr.FlowStalls.Inc()
		c.Spin(500)
	}

	seq := s.sent + 1
	slot := s.sent % uint64(s.cfg.Slots)
	base := s.va.staging + vm.VAddr(slot)*vm.VAddr(s.cfg.rstride())
	for off := 0; off < len(data); off += 8 {
		var word uint64
		for b := 0; b < 8 && off+b < len(data); b++ {
			word |= uint64(data[off+b]) << (8 * b)
		}
		if err := c.Store(base+vm.VAddr(off), phys.Size64, word); err != nil {
			return err
		}
	}
	s.lens[slot] = uint64(len(data))
	s.csums[slot] = checksum(seq, data)
	if err := s.transmit(c, seq); err != nil {
		return err
	}
	s.sent++
	if s.sent-s.credited == 1 {
		// First unacked message: arm a fresh timer.
		s.armTimer(s.clock.Now())
	}
	s.ctr.Messages.Inc()
	s.ctr.Bytes.Add(uint64(len(data)))
	return nil
}

// Flush blocks until every sent message has been acknowledged, pumping
// retransmissions. Call it before tearing the channel down.
func (s *RSender) Flush(c *proc.Context) error {
	for s.credited < s.sent {
		if err := s.pump(c); err != nil {
			return err
		}
		if s.credited >= s.sent {
			return nil
		}
		c.Spin(500)
	}
	return nil
}

// Linger keeps the receive side alive for d of simulated time after
// the last Recv, re-writing the cumulative credit every RecreditAfter
// — the TIME_WAIT analogue. The final ack is the one word the protocol
// cannot confirm; if the fabric drops it, the sender's Flush spins on
// retransmissions that nobody answers. A lingering receiver answers
// them: credits are idempotent, so repeating the last one is always
// safe. Pick d comfortably above the sender's worst-case backoff
// (MaxRTO); with a zero-fault plan d = 0 is fine.
func (r *RReceiver) Linger(c *proc.Context, d sim.Time) error {
	end := r.clock.Now() + d
	next := r.clock.Now() + r.cfg.RecreditAfter
	for r.clock.Now() < end {
		if r.clock.Now() >= next {
			if err := c.Store(r.va.creditW, phys.Size64, r.consumed); err != nil {
				return err
			}
			if err := c.MB(); err != nil {
				return err
			}
			r.ctr.Recredits.Inc()
			if tr := r.rm.Tracer; tr != nil {
				tr.Instant(r.clock.Now(), obs.CatMsg, "recredit",
					int32(r.rm.NodeID), -1, r.consumed, 0, 0)
			}
			next = r.clock.Now() + r.cfg.RecreditAfter
		}
		c.Spin(2000)
	}
	return nil
}

// Recv blocks (polling) until the next in-sequence, checksum-valid
// message arrives, copies it into buf (which must hold MaxPayload
// bytes), credits the sender, and returns the length. Duplicates,
// stale slot contents and partial interleavings are ignored — the
// sender's retransmissions repair them. If the channel makes no
// progress for RecreditAfter the receiver re-writes its cumulative
// credit word (a lost credit is the one ack the protocol cannot
// otherwise recover). Entirely user mode.
func (r *RReceiver) Recv(c *proc.Context, buf []byte) (int, error) {
	if len(buf) < r.cfg.SlotPayload {
		return 0, fmt.Errorf("msg: reliable Recv needs a %dB buffer, got %d", r.cfg.SlotPayload, len(buf))
	}
	slot := r.consumed % uint64(r.cfg.Slots)
	slotVA := r.va.mailboxR + vm.VAddr(slot)*vm.VAddr(r.cfg.rstride())
	want := r.consumed + 1
	start := r.clock.Now()
	lastProgress := start
	for {
		seq, err := c.Load(slotVA, phys.Size64)
		if err != nil {
			return 0, err
		}
		if seq == want {
			length, err := c.Load(slotVA+8, phys.Size64)
			if err != nil {
				return 0, err
			}
			if length <= uint64(r.cfg.SlotPayload) {
				csum, err := c.Load(slotVA+16, phys.Size64)
				if err != nil {
					return 0, err
				}
				for off := 0; off < int(length); off += 8 {
					word, err := c.Load(slotVA+rheaderBytes+vm.VAddr(off), phys.Size64)
					if err != nil {
						return 0, err
					}
					for b := 0; b < 8 && off+b < int(length); b++ {
						buf[off+b] = byte(word >> (8 * b))
					}
				}
				if checksum(want, buf[:length]) == csum {
					r.consumed++
					r.ctr.Messages.Inc()
					r.ctr.Bytes.Add(length)
					// Ack: cumulative credit by single remote write.
					if err := c.Store(r.va.creditW, phys.Size64, r.consumed); err != nil {
						return 0, err
					}
					if err := c.MB(); err != nil {
						return 0, err
					}
					return int(length), nil
				}
				// Right seq over wrong bytes: a commit word that beat
				// its payload, or a late duplicate over a reused slot.
				// Ignore; retransmission repairs it.
				r.ctr.CsumRejects.Inc()
			}
		} else if seq > want {
			// Slot seq values can only be want - k*Slots (stale) or want:
			// the sender cannot reuse the slot for want+Slots before our
			// own credit for want. Anything else is a protocol bug.
			return 0, fmt.Errorf("msg: slot %d holds impossible seq %d (want %d)", slot, seq, want)
		}
		now := r.clock.Now()
		if now-start > r.cfg.GiveUp {
			return 0, fmt.Errorf("msg: reliable receiver gave up waiting %v for seq %d", r.cfg.GiveUp, want)
		}
		if now-lastProgress >= r.cfg.RecreditAfter {
			// Credit-loss recovery: re-write the cumulative credit word.
			// Idempotent — it only ever carries the same monotonic count.
			if err := c.Store(r.va.creditW, phys.Size64, r.consumed); err != nil {
				return 0, err
			}
			if err := c.MB(); err != nil {
				return 0, err
			}
			r.ctr.Recredits.Inc()
			if tr := r.rm.Tracer; tr != nil {
				tr.Instant(r.clock.Now(), obs.CatMsg, "recredit",
					int32(r.rm.NodeID), -1, r.consumed, 0, 0)
			}
			lastProgress = now
		}
		c.Spin(500)
	}
}
