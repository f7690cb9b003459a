// Package pasm simulates the PASM prototype machine: processing
// elements (PEs) and Micro Controllers (MCs) built from the m68k
// interpreter, the Fetch Unit queue, the Extra-Stage Cube network, the
// SIMD lockstep executor, the asynchronous MIMD discrete-event engine,
// and the Fetch-Unit barrier used by the hybrid S/MIMD mode.
package pasm

import (
	"repro/internal/escube"
	"repro/internal/m68k"
	"repro/internal/obs"
)

// Memory-mapped device addresses seen by every PE (above
// m68k.DeviceBase). The network appears to the PEs as transfer
// registers; the SIMD instruction space doubles as the barrier
// synchronization mechanism (a data read from it completes only when
// all PEs of the partition have issued one).
const (
	// AddrSIMDSpace is the SIMD instruction space. In MIMD programs a
	// word read from it is the Fetch-Unit barrier synchronization.
	AddrSIMDSpace = 0x00F00000
	// AddrNetXmit is the network transmit register (byte writes).
	AddrNetXmit = 0x00F10000
	// AddrNetRecv is the network receive register (byte reads).
	AddrNetRecv = 0x00F10002
	// AddrNetTxReady reads 1 when the destination's input buffer is
	// free (a transmit would complete immediately).
	AddrNetTxReady = 0x00F10004
	// AddrNetRxValid reads 1 when the receive register holds data.
	AddrNetRxValid = 0x00F10006
	// AddrNetCtrl reconfigures this PE's circuit at run time (word
	// write): the value is the destination line to establish a path
	// to, or NetCtrlRelease to drop the held circuit. Establishing is
	// the expensive circuit-switched path set-up the paper calls "a
	// time consuming operation"; a write that conflicts with standing
	// circuits blocks until they are released.
	AddrNetCtrl = 0x00F10008
	// NetCtrlRelease written to AddrNetCtrl drops the PE's circuit.
	NetCtrlRelease = 0xFFFF
)

// Net is the circuit-switching network a virtual machine's transfer
// registers drive. A standalone VM owns a private escube.Network; a VM
// allocated from a partitioned machine gets an escube.Subcube view of
// the shared physical network, which confines its routing to the
// partition's subcube. Both satisfy this interface with identical
// establishment outcomes for intra-partition traffic (the subcube
// isomorphism, pinned by the escube tests), which is what makes a job
// on a partition cycle-identical to the same job on a standalone
// machine of the partition's size.
type Net interface {
	// Size returns the number of network lines.
	Size() int
	// Establish sets up a circuit src -> dst.
	Establish(src, dst int) error
	// EstablishPermutation establishes perm[src] = dst circuits
	// atomically (-1 entries skipped); on failure nothing is left
	// established.
	EstablishPermutation(perm []int) error
	// Release tears down src's circuit, if any.
	Release(src int)
	// ReleaseAll tears down every circuit this machine holds.
	ReleaseAll()
	// DestOf returns the destination of src's circuit, or -1. This is
	// the per-transfer hot path; implementations must not block on
	// cross-partition state.
	DestOf(src int) int
	// FailBox marks an interchange box faulty (fault-tolerance
	// experiments).
	FailBox(stage, box int) error
}

// netBuf is one PE's single-byte network input register with the
// timestamps needed for cycle-exact simulation.
type netBuf struct {
	val     uint8
	hasData bool
	availAt int64 // when in-flight data reaches the register
	freedAt int64 // when the register was last consumed
}

// netState is the shared state of one virtual machine's established
// network circuits.
type netState struct {
	nw      Net
	bufs    []netBuf
	latency int64 // TX-store to RX-availability, through the circuit
	extra   int64 // extra cycles per transfer-register access
	setup   int64 // cycles to establish a circuit at run time

	// transfers counts completed byte deliveries (observability);
	// reconfigs counts run-time path establishments.
	transfers int64
	reconfigs int64
}

func newNetState(size int, latency, extra, setup int64) (*netState, error) {
	nw, err := escube.New(size)
	if err != nil {
		return nil, err
	}
	return netStateOn(nw, latency, extra, setup), nil
}

// netStateOn wraps an existing network (a partition's subcube view, or
// a test fake) in fresh transfer-register state.
func netStateOn(nw Net, latency, extra, setup int64) *netState {
	return &netState{
		nw: nw, bufs: make([]netBuf, nw.Size()),
		latency: latency, extra: extra, setup: setup,
	}
}

// reconfig handles a run-time write to the network control register:
// drop the held circuit (dst == NetCtrlRelease) or establish a new
// one. Establishment that conflicts with standing circuits reports
// ok=false so the caller blocks and retries after other PEs release.
// dropped reports that src held a circuit, which the write released
// whether or not it then succeeds.
func (n *netState) reconfig(src int, dst uint32, t int64) (extra int64, dropped, ok bool) {
	dropped = n.nw.DestOf(src) >= 0
	n.nw.Release(src)
	if dst == NetCtrlRelease {
		return 0, dropped, true
	}
	if int(dst) >= n.nw.Size() {
		return 0, dropped, true // write to nowhere: path setup fails silently, as hardware would
	}
	if err := n.nw.Establish(src, int(dst)); err != nil {
		return 0, dropped, false
	}
	n.reconfigs++
	return n.setup, dropped, true
}

// Establish sets the static circuit permutation for a run.
func (n *netState) Establish(perm []int) error {
	n.nw.ReleaseAll()
	return n.nw.EstablishPermutation(perm)
}

// reset clears buffers but keeps circuits.
func (n *netState) reset() {
	for i := range n.bufs {
		n.bufs[i] = netBuf{}
	}
	n.transfers = 0
	n.reconfigs = 0
}

// send attempts PE src's transmit at time t to the register dst its
// circuit leads to (-1: none). ok=false means the destination register
// still holds unconsumed data (the hardware refuses the store; MIMD
// programs poll to avoid this, lockstep programs are ordered to make
// it impossible).
func (n *netState) send(src int, val uint8, t int64) (extra int64, dst int, ok bool) {
	dst = n.nw.DestOf(src)
	if dst < 0 {
		return 0, dst, true // no circuit: store is dropped into the void (path not set up)
	}
	b := &n.bufs[dst]
	if b.hasData {
		return 0, dst, false
	}
	start := t
	if b.freedAt > start {
		// The register frees "in the simulation's past" but at a later
		// timestamp than this store (lockstep groups may be processed
		// out of time order); the store waits for the hardware.
		start = b.freedAt
	}
	b.val = val
	b.hasData = true
	b.availAt = start + n.latency
	n.transfers++
	return start - t + n.extra, dst, true
}

// recv attempts PE dst's receive at time t. ok=false means nothing is
// in flight to this register yet.
func (n *netState) recv(dst int, t int64) (val uint8, extra int64, ok bool) {
	b := &n.bufs[dst]
	if !b.hasData {
		return 0, 0, false
	}
	done := t
	if b.availAt > done {
		done = b.availAt // data still in the network: wait for it
	}
	b.hasData = false
	b.freedAt = done
	return b.val, done - t + n.extra, true
}

// txReady reports whether PE src could complete a send at time t.
func (n *netState) txReady(src int, t int64) bool {
	dst := n.nw.DestOf(src)
	if dst < 0 {
		return true
	}
	b := &n.bufs[dst]
	return !b.hasData && b.freedAt <= t
}

// rxValid reports whether PE dst has receivable data at time t.
func (n *netState) rxValid(dst int, t int64) bool {
	b := &n.bufs[dst]
	return b.hasData && b.availAt <= t
}

// barrier implements the Fetch-Unit barrier synchronization of
// Section 3: the MC pre-enqueues R arbitrary words; MIMD-mode PEs read
// a word from the SIMD instruction space, and the Fetch Unit releases
// the word only after every enabled PE has requested it.
//
// The paper uses one MC group per barrier; this simulator synchronizes
// the whole virtual machine (multi-MC partitions coordinate their MCs,
// which the prototype's partitioning unit supports). The release time
// is the latest arrival.
type barrier struct {
	p        int
	arrived  []bool  // PE has arrived in the current round
	arrAt    []int64 // that arrival's time (per-PE wait observability)
	hasRel   []bool  // PE has a completed round release to consume
	relAt    []int64 // that release's time
	relRound []int   // that release's round number
	count    int
	latest   int64
	rounds   int
}

func newBarrier(p int) *barrier {
	return &barrier{
		p:        p,
		arrived:  make([]bool, p),
		arrAt:    make([]int64, p),
		hasRel:   make([]bool, p),
		relAt:    make([]int64, p),
		relRound: make([]int, p),
	}
}

// barStatus is the outcome of one barrier read attempt.
type barStatus uint8

const (
	barRegistered barStatus = iota // first read of the round; PE now waits
	barWaiting                     // retried while the round is incomplete
	barReleased                    // round complete; stored release consumed
	barCompleted                   // registered as the last arriver: arrival and release in one call
)

// arrive registers (or retries) PE k's barrier read at time t. The
// read is retry-safe: a first call registers the arrival
// (barRegistered); calls while the round is incomplete stay blocked
// (barWaiting); once the last PE arrives the round is released at the
// latest arrival time and each PE's next call consumes its release
// (barReleased, with the release time, the PE's own arrival time, and
// the round number for wait attribution).
func (b *barrier) arrive(k int, t int64) (release, arrivedAt int64, round int, st barStatus) {
	if b.hasRel[k] {
		b.hasRel[k] = false
		return b.relAt[k], b.arrAt[k], b.relRound[k], barReleased
	}
	if b.arrived[k] {
		return 0, 0, 0, barWaiting // still waiting for the rest of the partition
	}
	b.arrived[k] = true
	b.arrAt[k] = t
	b.count++
	if t > b.latest {
		b.latest = t
	}
	if b.count < b.p {
		return 0, 0, 0, barRegistered
	}
	// Round complete: release everyone at the latest arrival.
	rel := b.latest
	b.rounds++
	for i := range b.arrived {
		b.arrived[i] = false
		b.hasRel[i] = true
		b.relAt[i] = rel
		b.relRound[i] = b.rounds
	}
	b.count = 0
	b.latest = 0
	// The caller consumes its own release immediately.
	b.hasRel[k] = false
	return rel, b.arrAt[k], b.rounds, barCompleted
}

// deviceBus adapts the shared netState/barrier to one PE's
// m68k.DeviceBus. The MIMD engine points `armed` at its active-PE
// marker so that CPUs stop at device operations instead of executing
// them out of global timestamp order; a disarmed probe refuses every
// access. The lockstep executor leaves armed nil (always allowed,
// because it already processes device operations in stream order).
type deviceBus struct {
	pe    int
	net   *netState
	bar   *barrier
	barX  int64 // extra cycles per barrier read (mode-switch cost)
	armed *int  // points at the engine's active-PE marker; nil = always armed

	// rec/unit publish device events to the observability layer when a
	// recorder is attached; nil rec costs one pointer test per access.
	rec  *obs.Recorder
	unit int

	// wait is the wake channel of the last armed access the device
	// refused: what must complete before a retry can succeed. woke is
	// the channel the last armed access signalled (wakeNone when it
	// enables no refused access); only a reconfiguration signals one
	// when refused, having dropped the PE's circuit. The MIMD engine
	// reads both after each device step.
	wait, woke int32
}

// Wake channels. The MIMD engine parks a refused PE on its channel and
// re-steps it only after a completed access that may enable it: one
// that signals its channel, or for wakeCircuit the first completed
// access after any reconfiguration, refused or not, dropped a circuit
// (the moment a retry of every waiter after every completed access
// would first succeed). This is exact because a refused retry changes
// nothing, device by device: a barrier read retried while its round is
// incomplete (barWaiting), a receive from an empty register and a
// transmit into a full one only read state; a refused
// reconfiguration's Release finds no circuit left to drop on a retry
// (only the PE itself can establish one), and its establishment cannot
// succeed before some circuit is dropped. On the CPU side the retried
// instruction starts at the blocked clock, which the first attempt's
// refresh check has already passed, and its staged post-increments are
// discarded. The first refused access of a PE may have an effect (a
// barrier arrival registers; a reconfiguration drops the held
// circuit), so every PE reaching a device operation still steps once.
const (
	wakeNone    = -1
	wakeAny     = 0 // every completed access (unmapped addresses: never succeed)
	wakeBarrier = 1 // a barrier round completes
	wakeCircuit = 2 // a reconfiguration drops a circuit
)

// wakeReg is the channel of network register r: a transmit into it
// (the receiver PE r waits for data) or a receive from it (a
// transmitter waits for it to empty).
func wakeReg(r int) int32 { return int32(3 + r) }

func (d *deviceBus) isArmed() bool { return d.armed == nil || *d.armed == d.pe }

func (d *deviceBus) Load(addr uint32, sz m68k.Size, clock int64) (uint32, int64, bool) {
	if !d.isArmed() {
		return 0, 0, false
	}
	d.wait, d.woke = wakeAny, wakeNone
	switch {
	case addr >= AddrSIMDSpace && addr < AddrNetXmit:
		if d.bar == nil {
			return 0, 0, false
		}
		release, arrivedAt, round, st := d.bar.arrive(d.pe, clock)
		switch st {
		case barRegistered:
			if d.rec != nil {
				d.rec.Emit(d.unit, obs.Event{Kind: obs.KindBarrierArrive, Clock: clock})
			}
			d.wait = wakeBarrier
			return 0, 0, false
		case barWaiting:
			// This PE waits for the rest of the partition; the last
			// arriver's successful read wakes it for a retry, which
			// consumes the release recorded for it.
			d.wait = wakeBarrier
			return 0, 0, false
		case barCompleted:
			d.woke = wakeBarrier
		}
		if d.rec != nil {
			if st == barCompleted {
				d.rec.Emit(d.unit, obs.Event{Kind: obs.KindBarrierArrive, Clock: arrivedAt})
			}
			d.rec.Emit(d.unit, obs.Event{
				Kind: obs.KindBarrierRelease, Clock: release,
				Dur: release - arrivedAt, Arg: int64(round),
			})
		}
		return 0, release - clock + d.barX, true
	case addr == AddrNetRecv:
		v, extra, ok := d.net.recv(d.pe, clock)
		if !ok {
			d.wait = wakeReg(d.pe)
		} else {
			d.woke = wakeReg(d.pe)
		}
		if ok && d.rec != nil {
			wait := extra - d.net.extra
			d.rec.Emit(d.unit, obs.Event{Kind: obs.KindNetRecv, Clock: clock + wait, Dur: wait})
		}
		return uint32(v), extra, ok
	case addr == AddrNetTxReady:
		ready := int64(0)
		if d.net.txReady(d.pe, clock) {
			ready = 1
		}
		if d.rec != nil {
			d.rec.Emit(d.unit, obs.Event{Kind: obs.KindNetPoll, Clock: clock, Arg: ready})
		}
		return uint32(ready), 0, true
	case addr == AddrNetRxValid:
		ready := int64(0)
		if d.net.rxValid(d.pe, clock) {
			ready = 1
		}
		if d.rec != nil {
			d.rec.Emit(d.unit, obs.Event{Kind: obs.KindNetPoll, Clock: clock, Arg: ready})
		}
		return uint32(ready), 0, true
	}
	return 0, 0, false
}

func (d *deviceBus) Store(addr uint32, sz m68k.Size, val uint32, clock int64) (int64, bool) {
	if !d.isArmed() {
		return 0, false
	}
	d.wait, d.woke = wakeAny, wakeNone
	switch addr {
	case AddrNetXmit:
		extra, dst, ok := d.net.send(d.pe, uint8(val), clock)
		if !ok {
			d.wait = wakeReg(dst)
		} else if dst >= 0 {
			d.woke = wakeReg(dst)
		}
		if ok && d.rec != nil {
			wait := extra - d.net.extra
			if wait < 0 {
				wait = 0 // no circuit: the store vanished with no register wait
			}
			d.rec.Emit(d.unit, obs.Event{
				Kind: obs.KindNetSend, Clock: clock,
				Dur: wait, Arg: int64(dst),
			})
		}
		return extra, ok
	case AddrNetCtrl:
		extra, dropped, ok := d.net.reconfig(d.pe, val&0xFFFF, clock)
		if !ok {
			d.wait = wakeCircuit
		}
		if dropped {
			d.woke = wakeCircuit
		}
		if ok && extra > 0 && d.rec != nil {
			d.rec.Emit(d.unit, obs.Event{
				Kind: obs.KindNetReconfig, Clock: clock + extra,
				Dur: extra, Arg: int64(val & 0xFFFF),
			})
		}
		return extra, ok
	}
	return 0, false
}
