package pasm

import (
	"fmt"
	"slices"

	"repro/internal/m68k"
)

// RunMIMD executes the same program asynchronously on every PE of the
// partition: the paper's MIMD mode (and, when the program reads the
// SIMD space for barrier synchronization, the hybrid S/MIMD mode; with
// P=1 it is the serial SISD mode). The MCs only start the PE programs,
// which is a constant the measurements exclude.
func (vm *VM) RunMIMD(prog *m68k.Program) (RunResult, error) {
	if len(prog.Instrs) == 0 {
		return RunResult{}, fmt.Errorf("pasm: empty program")
	}
	vm.net.reset()
	vm.bar = newBarrier(vm.P)

	cpus := make([]*m68k.CPU, vm.P)
	for i, pe := range vm.PEs {
		cpu := m68k.NewCPU(prog, pe.Mem)
		cpu.FetchFromMem = true
		cpu.FixedMulCycles = vm.Cfg.FixedMulCycles
		cpu.DisableExecTable = vm.Cfg.DisableExecTable
		cpu.A[7] = pe.Mem.Size() - 4
		pe.dev.bar = vm.bar
		cpu.Dev = pe.dev
		if vm.TraceHook != nil {
			vm.TraceHook(fmt.Sprintf("PE%d", i), cpu)
		}
		cpus[i] = cpu
	}
	vm.wireObsPEs(cpus)

	if err := vm.runDES(cpus, false); err != nil {
		return RunResult{}, err
	}

	res := RunResult{PEClocks: make([]int64, vm.P)}
	var critical *m68k.CPU
	for i, cpu := range cpus {
		res.PEClocks[i] = cpu.Clock
		if cpu.Clock > res.Cycles {
			res.Cycles = cpu.Clock
			critical = cpu
		}
		res.Instrs += cpu.InstrCount
	}
	if critical != nil {
		res.Regions = critical.Regions
	}
	res.BarrierRounds = vm.bar.rounds
	res.NetTransfers = vm.net.transfers
	res.NetReconfigs = vm.net.reconfigs
	vm.finishObsPEs(cpus)
	return res, nil
}

// sliceSteps is the step budget of one CPU.Run call in the engine's
// segment runs; the MaxSteps runaway guard is checked after each slice.
const sliceSteps = 1 << 16

// runDES is the conservative discrete-event engine shared by the MIMD
// mode and the mixed-mode MIMD sections of SIMD programs.
//
// Each PE runs its pure computation freely (PEs share no memory), but
// device operations — network transfer registers, status polls,
// barrier reads — are performed in global timestamp order: CPUs are
// advanced with their device bus disarmed so they stop just before the
// operation, and the operation with the smallest (clock, PE index) is
// performed first. Wait times are charged by the devices themselves
// from timestamps (data arrival, register-free, barrier release), so
// the blocked instruction's accounting region absorbs the wait —
// exactly the attribution the paper's Figures 8-10 break out.
//
// The engine's cost is proportional to events. PEs stopped at a
// device operation sit in a min-heap keyed by (clock, index); a PE the
// device refuses parks on the wake channel the device names (a barrier
// round, a network register, a circuit release, or any completed
// access; see the wake channels in netdev.go), and a completed
// operation moves back into the heap only the PEs parked on the
// channel it signals, those waiting for a circuit once one has been
// dropped, and those on wakeAny. A refused retry changes nothing, so
// skipping the retries that could not succeed leaves the simulation
// exactly as retrying every waiter after every operation would. Only the PE whose operation just completed
// can have computation to run, so after the initial advance each heap
// pop runs at most one segment.
//
// With stopOnJump, a PE that jumps into the SIMD instruction space
// (the MIMD-to-SIMD mode switch of paper Section 3) parks, and the
// engine returns once every PE has parked or halted; otherwise such a
// jump is an error and only HALT terminates a PE.
func (vm *VM) runDES(cpus []*m68k.CPU, stopOnJump bool) error {
	active := -1
	for _, pe := range vm.PEs {
		pe.dev.armed = &active
	}
	defer func() {
		for _, pe := range vm.PEs {
			pe.dev.armed = nil
		}
	}()

	var ops opHeap
	waiters := waitLists{channels: int(wakeReg(len(vm.net.bufs))), pes: len(cpus)}
	dropped := false // a reconfiguration dropped a circuit since the last completed access
	// settle files PE i by the status its segment or device operation
	// stopped with: at a device operation it enters the heap, halted
	// or parked it leaves the simulation.
	settle := func(i int, st m68k.Status) error {
		switch st {
		case m68k.StatusBlocked:
			ops.push(cpus[i].Clock, i)
		case m68k.StatusHalted:
		case m68k.StatusSIMDJump:
			if !stopOnJump {
				return fmt.Errorf("pasm: PE %d jumped into the SIMD space outside mixed-mode execution", i)
			}
		case m68k.StatusBcast, m68k.StatusSetMask:
			return fmt.Errorf("pasm: PE %d executed an MC-only instruction in MIMD mode", i)
		default:
			return fmt.Errorf("pasm: PE %d: %w", i, cpus[i].Err)
		}
		return nil
	}

	// advance runs PE i's computation segment to its next device
	// operation (or halt/park/error) and settles it there. The runaway
	// guard bounds the CPU's own executed instruction count.
	advance := func(i int) error {
		for {
			st := cpus[i].Run(sliceSteps)
			if cpus[i].InstrCount > vm.Cfg.MaxSteps {
				return fmt.Errorf("pasm: MIMD run exceeded %d steps", vm.Cfg.MaxSteps)
			}
			if st != m68k.StatusOK {
				return settle(i, st)
			}
		}
	}

	// Advance every PE to its first device operation (devices
	// disarmed: active == -1 matches no PE).
	for i := range cpus {
		if err := advance(i); err != nil {
			return err
		}
	}

	wake := func(ch int32) {
		if waiters.head == nil {
			return
		}
		for i := waiters.head[ch]; i >= 0; i = waiters.next[i] {
			ops.push(cpus[i].Clock, int(i))
		}
		waiters.head[ch] = -1
	}
	for ops.len() > 0 {
		pick := ops.pop()
		dev := vm.PEs[pick].dev
		active = pick
		st := cpus[pick].Step()
		active = -1
		if st == m68k.StatusBlocked {
			waiters.park(pick, dev.wait)
			dropped = dropped || dev.woke == wakeCircuit
			continue
		}
		if st != m68k.StatusOK {
			if err := settle(pick, st); err != nil {
				return err
			}
		}
		// The completed operation enables the waiters on its channel.
		if dev.woke == wakeCircuit {
			dropped = true
		} else if dev.woke != wakeNone {
			wake(dev.woke)
		}
		if dropped {
			dropped = false
			wake(wakeCircuit)
		}
		wake(wakeAny)
		if st == m68k.StatusOK {
			if err := advance(pick); err != nil {
				return err
			}
		}
	}
	if stuck := waiters.all(); len(stuck) > 0 {
		return fmt.Errorf("pasm: deadlock: PEs %v waiting with no pending events", stuck)
	}
	return nil // every PE halted or parked
}

// waitLists holds the PEs a device refused, one intrusive list per
// wake channel: head[ch] is the first PE parked on ch, next[i] the PE
// after i, and -1 ends a list. The lists are allocated by the first
// park (a run without refusals allocates nothing).
type waitLists struct {
	channels, pes int
	head, next    []int32
}

func (w *waitLists) park(i int, ch int32) {
	if w.head == nil {
		buf := make([]int32, w.channels+w.pes)
		w.head, w.next = buf[:w.channels], buf[w.channels:]
		for j := range w.head {
			w.head[j] = -1
		}
	}
	w.next[i], w.head[ch] = w.head[ch], int32(i)
}

// all returns every parked PE in index order.
func (w *waitLists) all() []int {
	var out []int
	for _, i := range w.head {
		for ; i >= 0; i = w.next[i] {
			out = append(out, int(i))
		}
	}
	slices.Sort(out)
	return out
}

// opHeap is the engine's queue of PEs stopped at a device operation,
// a binary min-heap ordered by (clock, PE index): among operations at
// the same clock the lowest-numbered PE goes first.
type opHeap struct{ h []opKey }

type opKey struct {
	clock int64
	pe    int
}

func (k opKey) before(o opKey) bool {
	return k.clock < o.clock || k.clock == o.clock && k.pe < o.pe
}

func (q *opHeap) len() int { return len(q.h) }

func (q *opHeap) push(clock int64, pe int) {
	h := append(q.h, opKey{clock, pe})
	for j := len(h) - 1; j > 0; {
		parent := (j - 1) / 2
		if !h[j].before(h[parent]) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
	q.h = h
}

func (q *opHeap) pop() int {
	h := q.h
	top := h[0].pe
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for j := 0; ; {
		l := 2*j + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(h[l]) {
			l = r
		}
		if !h[l].before(h[j]) {
			break
		}
		h[j], h[l] = h[l], h[j]
		j = l
	}
	q.h = h
	return top
}
