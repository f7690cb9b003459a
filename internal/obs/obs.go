// Package obs is the simulator's unified observability layer: a typed
// simulated-time event stream, a metrics registry of counters and
// fixed-bucket histograms, and exporters (Chrome trace-event JSON for
// Perfetto, text tables, interleaved listings).
//
// Simulation components publish events through nil-checked hooks, so a
// detached recorder costs nothing on the hot path (the interpreter
// steady state stays at zero allocations per instruction). Attached,
// every unit of the simulated machine (PE0.., MC0..) gets its own
// buffer and registry: a run is advanced by one host goroutine, so
// recording needs no locks, and the per-unit streams are merged in
// timestamp order on export. Everything recorded is simulated time, so
// the stream is a pure function of the run.
package obs

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/m68k"
)

// Kind classifies an event.
type Kind uint8

// Event kinds. Slice events (a duration in simulated cycles) carry the
// completion time in Clock and the length in Dur; instantaneous events
// have Dur 0.
const (
	// KindInstr is one committed instruction: Dur its cycle cost
	// (including any device wait charged to it), PC its instruction
	// index, Arg its opcode (m68k.Op).
	KindInstr Kind = iota
	// KindFetchEnqueue is the Fetch Unit controller finishing a block
	// of words into the queue: Dur the controller busy time (including
	// queue-full stalls), Arg the word count. Published on the MC unit.
	KindFetchEnqueue
	// KindFetchRelease is a broadcast instruction leaving the queue to
	// the lockstep group: Arg the word count. Published on the MC unit.
	KindFetchRelease
	// KindQueueDepth samples the queue occupancy after an enqueue or
	// release: Arg the words in flight. Published on the MC unit.
	KindQueueDepth
	// KindLockstepWait is a PE waiting for a SIMD instruction release
	// (the paper's per-instruction max-of-PEs cost): Dur the wait.
	KindLockstepWait
	// KindBarrierArrive is a PE's first read of the Fetch-Unit barrier
	// in the current round.
	KindBarrierArrive
	// KindBarrierRelease is a barrier round releasing a PE: Dur the
	// cycles it waited on the rest of the partition, Arg the round.
	KindBarrierRelease
	// KindNetSend is a completed transmit-register store: Arg the
	// destination line (-1 when no circuit is established), Dur the
	// cycles spent waiting for the destination register to free.
	KindNetSend
	// KindNetRecv is a completed receive-register load: Dur the cycles
	// spent waiting for in-flight data.
	KindNetRecv
	// KindNetPoll is a status-register poll: Arg 1 when the polled
	// condition (TX ready / RX valid) held, 0 otherwise.
	KindNetPoll
	// KindNetReconfig is a run-time circuit establishment: Arg the
	// destination line, Dur the path set-up cost.
	KindNetReconfig
	// KindModeSwitch marks a PE switching execution modes in a mixed
	// SIMD/MIMD program: Arg 1 entering the asynchronous section, 0
	// rejoining the lockstep stream.
	KindModeSwitch
	// NumKinds is the number of event kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	KindInstr:          "instr",
	KindFetchEnqueue:   "fetch-enqueue",
	KindFetchRelease:   "fetch-release",
	KindQueueDepth:     "queue-depth",
	KindLockstepWait:   "lockstep-wait",
	KindBarrierArrive:  "barrier-arrive",
	KindBarrierRelease: "barrier-wait",
	KindNetSend:        "net-send",
	KindNetRecv:        "net-recv",
	KindNetPoll:        "net-poll",
	KindNetReconfig:    "net-reconfig",
	KindModeSwitch:     "mode-switch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// KindSet is a bit set of event kinds.
type KindSet uint32

// AllKinds selects every event kind.
const AllKinds KindSet = 1<<NumKinds - 1

// Kinds builds a set from a kind list.
func Kinds(ks ...Kind) KindSet {
	var s KindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in the set.
func (s KindSet) Has(k Kind) bool { return s>>k&1 != 0 }

// Event is one simulated-time observation. Clock is the event's
// completion time on the unit's timeline; slice events start at
// Clock-Dur. Seq is the unit-local emission order, which breaks
// timestamp ties deterministically when streams are merged.
type Event struct {
	Kind  Kind
	Unit  int32
	PC    int32 // instruction index (KindInstr)
	Seq   int64
	Clock int64
	Dur   int64
	Arg   int64
}

// Config selects what a Recorder retains.
type Config struct {
	// Events selects the kinds kept in the per-unit event buffers; the
	// zero set records nothing (metrics only).
	Events KindSet
	// Limit caps the retained events per unit, keeping the most recent
	// (a ring, like the old trace buffer). 0 means unlimited.
	Limit int
	// Metrics enables the per-unit metrics registries.
	Metrics bool
}

// Recorder collects the event stream and metrics of one simulated
// machine run. Construct with New; attach via pasm.Config.Obs (or
// VM.Obs directly). Unit registration takes a lock; event emission is
// lock-free because each unit is driven by one host goroutine at a
// time.
type Recorder struct {
	cfg Config

	mu    sync.Mutex
	units []*Unit
	index map[string]int
}

// New returns an empty recorder.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg, index: map[string]int{}}
}

// Unit is one simulated unit's stream: its retained events, metrics
// registry, and end-of-run totals.
type Unit struct {
	ID   int
	Name string
	// Reg is the unit's metrics registry (nil unless Config.Metrics).
	Reg *Registry
	// Clock and Instrs are the unit's final simulated clock and
	// instruction count, set by Finish at the end of a run.
	Clock  int64
	Instrs int64

	rec      *Recorder
	events   []Event
	next     int
	recorded int64 // events that passed the kind filter
}

// Unit registers (or finds) a unit by name and returns its id.
func (r *Recorder) Unit(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.index[name]; ok {
		return id
	}
	u := &Unit{ID: len(r.units), Name: name, rec: r}
	if r.cfg.Metrics {
		u.Reg = NewRegistry()
	}
	r.units = append(r.units, u)
	r.index[name] = u.ID
	return u.ID
}

// Units returns the registered units in id order.
func (r *Recorder) Units() []*Unit {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Unit, len(r.units))
	copy(out, r.units)
	return out
}

// Emit records one event on a unit's stream. Unit and Seq are filled
// in by the recorder. Not safe for concurrent use on one unit: each
// unit is advanced by one goroutine at a time (the simulator's
// invariant).
func (r *Recorder) Emit(unit int, ev Event) {
	u := r.units[unit]
	ev.Unit = int32(u.ID)
	if u.Reg != nil {
		u.Reg.observe(ev)
	}
	if !r.cfg.Events.Has(ev.Kind) {
		return
	}
	ev.Seq = u.recorded
	u.recorded++
	if r.cfg.Limit > 0 && len(u.events) == r.cfg.Limit {
		u.events[u.next] = ev
		u.next = (u.next + 1) % r.cfg.Limit
		return
	}
	u.events = append(u.events, ev)
}

// Finish records a unit's end-of-run totals and mirrors them into its
// registry.
func (r *Recorder) Finish(unit int, clock, instrs int64) {
	u := r.units[unit]
	u.Clock = clock
	u.Instrs = instrs
	if u.Reg != nil {
		u.Reg.Add("cycles", clock)
		u.Reg.Add("instrs", instrs)
	}
}

// Events returns the unit's retained events, oldest first.
func (u *Unit) Events() []Event {
	out := make([]Event, 0, len(u.events))
	out = append(out, u.events[u.next:]...)
	out = append(out, u.events[:u.next]...)
	return out
}

// Dropped returns how many of the unit's recorded events were evicted
// by the ring limit.
func (u *Unit) Dropped() int64 { return u.recorded - int64(len(u.events)) }

// Merged returns every unit's retained events merged into one stream
// ordered by (Clock, Unit, Seq) — global simulated-time order with
// deterministic tie-breaks, independent of host scheduling. A unit's
// buffer is already in that order when the unit emits in clock order,
// which every PE does, so the buffers are k-way merged rather than
// sorted together; a buffer out of order is sorted first (an MC's:
// its fetch-enqueue events carry the time the words became ready,
// earlier than the queue-depth sample emitted before them).
func (r *Recorder) Merged() []Event {
	// h is a binary min-heap of the units' runs keyed by their first
	// events, which come from distinct units: (Clock, Unit) orders them.
	var h [][]Event
	n := 0
	for _, u := range r.Units() {
		// Read the buffer in place unless it is out of order, which a
		// wrapped ring always is (its newest event precedes its oldest).
		evs := u.events
		if !slices.IsSortedFunc(evs, compareEvents) {
			evs = u.Events()
			slices.SortFunc(evs, compareEvents)
		}
		if len(evs) > 0 {
			h = append(h, evs)
			n += len(evs)
		}
	}
	less := func(a, b *Event) bool { return a.Clock < b.Clock || a.Clock == b.Clock && a.Unit < b.Unit }
	down := func(j int) {
		for {
			l := 2*j + 1
			if l >= len(h) {
				return
			}
			if r := l + 1; r < len(h) && less(&h[r][0], &h[l][0]) {
				l = r
			}
			if !less(&h[l][0], &h[j][0]) {
				return
			}
			h[j], h[l] = h[l], h[j]
			j = l
		}
	}
	for j := len(h)/2 - 1; j >= 0; j-- {
		down(j)
	}
	out := make([]Event, 0, n)
	for len(h) > 0 {
		out = append(out, h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}

// compareEvents orders events by (Clock, Unit, Seq). Seq counts a
// unit's emissions, so no two events compare equal and the order is
// total.
func compareEvents(a, b Event) int {
	if c := cmp.Compare(a.Clock, b.Clock); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Unit, b.Unit); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// Metrics returns the merge of every unit's registry in unit order:
// the machine-wide totals. Per-unit registries remain on Units().
func (r *Recorder) Metrics() *Registry {
	out := NewRegistry()
	for _, u := range r.Units() {
		if u.Reg != nil {
			out.Merge(u.Reg)
		}
	}
	return out
}

// AttachCPU chains the recorder onto a CPU's per-instruction trace
// hook, publishing a KindInstr event for every committed instruction.
// Any previously attached hook keeps firing first.
func (r *Recorder) AttachCPU(unit int, cpu *m68k.CPU) {
	prev := cpu.Trace
	cpu.Trace = func(in *m68k.Instr, pc int, clock, cycles int64) {
		if prev != nil {
			prev(in, pc, clock, cycles)
		}
		r.Emit(unit, Event{
			Kind:  KindInstr,
			PC:    int32(pc),
			Clock: clock,
			Dur:   cycles,
			Arg:   int64(in.Op),
		})
	}
}
