// Package msg is a user-level message-passing library built entirely on
// the paper's primitives: payloads travel by user-level DMA, headers
// and flow-control credits by single-word remote writes. After setup,
// a running channel performs ZERO kernel crossings on either side —
// the end-to-end demonstration of what user-level DMA buys a Network of
// Workstations (the Hamlyn / Telegraphos style of sender-based
// communication the paper cites).
//
// Protocol (one-directional channel):
//
//   - The receiver owns a mailbox ring of Slots slots in its local
//     memory. Each slot is [seq | len | payload…], 64-byte aligned.
//   - The sender stages a message in a local page, DMAs the payload
//     into the next slot's payload area, waits for the DMA to drain,
//     then remote-writes len and finally seq (the commit word). The
//     fabric is FIFO per destination, so a visible seq implies the
//     payload landed.
//   - The receiver polls the expected slot's seq, copies the payload
//     out, and remote-writes its cumulative consumed count into the
//     sender's credit word. The sender blocks when the ring is full
//     (sent − credited == Slots).
//
// Every access is an ordinary user-mode instruction; protection comes
// from the kernel-established mappings (sender: write-only window onto
// the receiver's mailbox; receiver: write-only window onto the sender's
// credit word).
package msg

import (
	"fmt"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// Virtual-address layout inside the two processes. The library owns
// these conventions the way a real one would own its mmap'ed regions;
// each channel Index gets its own 64 KiB-spaced set of bases so one
// process can hold several endpoints.
const (
	vaStagingBase  = vm.VAddr(0x0060_0000) // sender: payload staging page
	vaCreditBase   = vm.VAddr(0x0061_0000) // sender: local credit word page
	vaMailboxWBase = vm.VAddr(0x0068_0000) // sender: remote window onto the mailbox
	vaMailboxRBase = vm.VAddr(0x0070_0000) // receiver: local mailbox pages
	vaCreditWBase  = vm.VAddr(0x0078_0000) // receiver: remote window onto the credit word
	indexStride    = vm.VAddr(0x0001_0000) // per-Index spacing (8 pages)
	maxIndex       = 7
	headerBytes    = 16 // seq (8) + len (8)
	slotAlign      = 64
)

// vaSet holds one channel's virtual bases.
type vaSet struct {
	staging  vm.VAddr
	credit   vm.VAddr
	mailboxW vm.VAddr
	mailboxR vm.VAddr
	creditW  vm.VAddr
}

func basesFor(index int) vaSet {
	off := vm.VAddr(index) * indexStride
	return vaSet{
		staging:  vaStagingBase + off,
		credit:   vaCreditBase + off,
		mailboxW: vaMailboxWBase + off,
		mailboxR: vaMailboxRBase + off,
		creditW:  vaCreditWBase + off,
	}
}

// Config sizes a channel.
type Config struct {
	// Slots is the ring depth (default 8).
	Slots int
	// SlotPayload is the max message size in bytes (default 960; the
	// whole ring must fit the mailbox pages).
	SlotPayload int
	// Index distinguishes multiple channels touching the same process
	// (0-7): each index owns a disjoint slice of the library's virtual
	// layout on both endpoints.
	Index int
}

func (c *Config) fill() {
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.SlotPayload == 0 {
		c.SlotPayload = 960
	}
}

// stride is the 64-byte-aligned slot footprint.
func (c Config) stride() int {
	s := headerBytes + c.SlotPayload
	return (s + slotAlign - 1) &^ (slotAlign - 1)
}

func (c Config) validate(pageSize uint64) error {
	if c.Slots < 1 || c.SlotPayload < 8 {
		return fmt.Errorf("msg: config %+v out of range", c)
	}
	if c.SlotPayload%8 != 0 {
		return fmt.Errorf("msg: SlotPayload %d must be a multiple of 8", c.SlotPayload)
	}
	if c.Index < 0 || c.Index > maxIndex {
		return fmt.Errorf("msg: channel index %d out of range 0..%d", c.Index, maxIndex)
	}
	if uint64(c.Slots*c.stride()) > uint64(indexStride) {
		return fmt.Errorf("msg: ring of %d x %dB slots exceeds the per-channel window", c.Slots, c.SlotPayload)
	}
	if uint64(c.SlotPayload) > pageSize-headerBytes {
		return fmt.Errorf("msg: SlotPayload %d exceeds a staging page", c.SlotPayload)
	}
	return nil
}

// mailboxPages is how many pages the ring occupies.
func (c Config) mailboxPages(pageSize uint64) int {
	total := uint64(c.Slots * c.stride())
	return int((total + pageSize - 1) / pageSize)
}

// Sender is the sending endpoint. Use it only from its own process's
// guest code.
type Sender struct {
	cfg  Config
	va   vaSet
	h    *userdma.Handle
	sent uint64
	ctr  Counters
}

// Receiver is the receiving endpoint.
type Receiver struct {
	cfg      Config
	va       vaSet
	consumed uint64
	ctr      Counters
}

// Counters counts endpoint activity in obs cells.
type Counters struct {
	Messages   obs.Counter
	Bytes      obs.Counter
	FlowStalls obs.Counter // sender waits on a full ring
}

// NewChannel wires a unidirectional channel from senderProc (on sender
// machine sm) to receiverProc (on rm, cluster node rxNode). It performs
// all the setup-time kernel work on both nodes: mailbox and credit
// allocation, remote windows, shadow aliases. h is the sender's DMA
// handle; because Send waits for payload completion before committing
// the header, the handle's method must support user-level status
// polling (extended-shadow, key-based, or kernel-level — not repeated
// passing or the paired schemes).
func NewChannel(sm *machine.Machine, senderProc *proc.Process, h *userdma.Handle,
	rm *machine.Machine, receiverProc *proc.Process, rxNode int, cfg Config) (*Sender, *Receiver, error) {

	cfg.fill()
	pageSize := sm.Cfg.PageSize
	if err := cfg.validate(pageSize); err != nil {
		return nil, nil, err
	}
	if h == nil {
		return nil, nil, fmt.Errorf("msg: nil DMA handle")
	}
	va := basesFor(cfg.Index)

	// Receiver side: mailbox pages (local, readable) + remote window to
	// the sender's credit word.
	mbPages := cfg.mailboxPages(pageSize)
	rk := rm.Kernel
	var mailboxFrames []phys.Addr
	for i := 0; i < mbPages; i++ {
		mbVA := va.mailboxR + vm.VAddr(uint64(i)*pageSize)
		frame, err := rk.AllocPage(receiverProc.AddressSpace(), mbVA, vm.Read|vm.Write)
		if err != nil {
			return nil, nil, fmt.Errorf("msg: mailbox page %d: %w", i, err)
		}
		mailboxFrames = append(mailboxFrames, frame)
	}
	for i := 1; i < mbPages; i++ {
		if mailboxFrames[i] != mailboxFrames[i-1]+phys.Addr(pageSize) {
			return nil, nil, fmt.Errorf("msg: mailbox frames not contiguous")
		}
	}

	// Sender side: staging page + shadow, credit page (local, readable),
	// remote window onto the mailbox + shadow.
	sk := sm.Kernel
	if _, err := sk.AllocPage(senderProc.AddressSpace(), va.staging, vm.Read|vm.Write); err != nil {
		return nil, nil, fmt.Errorf("msg: staging page: %w", err)
	}
	if err := sk.MapShadow(senderProc, va.staging); err != nil {
		return nil, nil, err
	}
	creditFrame, err := sk.AllocPage(senderProc.AddressSpace(), va.credit, vm.Read|vm.Write)
	if err != nil {
		return nil, nil, fmt.Errorf("msg: credit page: %w", err)
	}
	for i := 0; i < mbPages; i++ {
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

	s := &Sender{cfg: cfg, va: va, h: h}
	r := &Receiver{cfg: cfg, va: va}
	return s, r, nil
}

// Send transmits data (at most the slot payload) and blocks until the
// payload has left the node. It runs entirely in user mode.
func (s *Sender) Send(c *proc.Context, data []byte) error {
	if len(data) > s.cfg.SlotPayload {
		return fmt.Errorf("msg: message of %d bytes exceeds slot payload %d", len(data), s.cfg.SlotPayload)
	}
	// Flow control: wait for a free slot.
	for {
		credited, err := c.Load(s.va.credit, phys.Size64)
		if err != nil {
			return err
		}
		if s.sent-credited < uint64(s.cfg.Slots) {
			break
		}
		s.ctr.FlowStalls.Inc()
		c.Spin(500)
	}
	// Stage the payload (word stores into the local staging page).
	for off := 0; off < len(data); off += 8 {
		var word uint64
		for b := 0; b < 8 && off+b < len(data); b++ {
			word |= uint64(data[off+b]) << (8 * b)
		}
		if err := c.Store(s.va.staging+vm.VAddr(off), phys.Size64, word); err != nil {
			return err
		}
	}

	slot := s.sent % uint64(s.cfg.Slots)
	slotVA := s.va.mailboxW + vm.VAddr(slot)*vm.VAddr(s.cfg.stride())
	if len(data) > 0 {
		// Payload by user-level DMA into the slot's payload area.
		st, err := s.h.DMA(c, s.va.staging, slotVA+headerBytes, uint64(len(data)))
		if err != nil {
			return err
		}
		if st == dma.StatusFailure {
			return fmt.Errorf("msg: payload DMA refused")
		}
		// The commit word must not overtake the payload: the DMA is
		// asynchronous, so wait for it to drain before writing headers.
		if err := s.h.Wait(c, 1_000_000); err != nil {
			return err
		}
	}
	// Header: len first, then seq as the commit word.
	if err := c.Store(slotVA+8, phys.Size64, uint64(len(data))); err != nil {
		return err
	}
	if err := c.Store(slotVA, phys.Size64, s.sent+1); err != nil {
		return err
	}
	if err := c.MB(); err != nil {
		return err
	}
	s.sent++
	s.ctr.Messages.Inc()
	s.ctr.Bytes.Add(uint64(len(data)))
	return nil
}

// Recv blocks (polling) until the next message arrives, copies it into
// buf, returns its length, and returns a flow-control credit to the
// sender. It runs entirely in user mode.
func (r *Receiver) Recv(c *proc.Context, buf []byte) (int, error) {
	slot := r.consumed % uint64(r.cfg.Slots)
	slotVA := r.va.mailboxR + vm.VAddr(slot)*vm.VAddr(r.cfg.stride())
	want := r.consumed + 1
	for {
		seq, err := c.Load(slotVA, phys.Size64)
		if err != nil {
			return 0, err
		}
		if seq == want {
			break
		}
		if seq > want {
			return 0, fmt.Errorf("msg: slot %d skipped to seq %d (want %d)", slot, seq, want)
		}
		c.Spin(500)
	}
	length, err := c.Load(slotVA+8, phys.Size64)
	if err != nil {
		return 0, err
	}
	if int(length) > r.cfg.SlotPayload {
		return 0, fmt.Errorf("msg: corrupt header: length %d", length)
	}
	if int(length) > len(buf) {
		return 0, fmt.Errorf("msg: message of %d bytes exceeds buffer %d", length, len(buf))
	}
	for off := 0; off < int(length); off += 8 {
		word, err := c.Load(slotVA+headerBytes+vm.VAddr(off), phys.Size64)
		if err != nil {
			return 0, err
		}
		for b := 0; b < 8 && off+b < int(length); b++ {
			buf[off+b] = byte(word >> (8 * b))
		}
	}
	r.consumed++
	r.ctr.Messages.Inc()
	r.ctr.Bytes.Add(length)
	// Return the credit (single remote write; ordering vs later slots
	// does not matter — credits only ever increase).
	if err := c.Store(r.va.creditW, phys.Size64, r.consumed); err != nil {
		return 0, err
	}
	if err := c.MB(); err != nil {
		return 0, err
	}
	return int(length), nil
}
