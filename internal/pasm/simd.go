package pasm

import (
	"fmt"

	"repro/internal/fetchunit"
	"repro/internal/m68k"
	"repro/internal/obs"
)

// RunSIMD executes an MC program in SIMD mode.
//
// Every MC of the partition runs the same program from its own memory:
// control flow (loops, pointer bookkeeping) executes on the MC CPU,
// and each BCAST instruction hands a block of data-processing
// instructions to the Fetch Unit, whose controller streams it word by
// word into the finite queue. Each PE of the group requests the next
// instruction when it finishes its current one; the Fetch Unit
// releases an instruction only when it is fully enqueued AND every
// enabled PE of the group has requested it — per-instruction lockstep,
// which is exactly the paper's "SIMD mode charges the worst case of
// every instruction" behaviour (T_SIMD = sum of per-instruction
// maxima).
//
// The MC timeline and the PE timelines are tracked independently and
// coupled only through the queue (ready times, controller-busy stalls,
// queue-full back-pressure), so MC control flow overlaps PE
// computation exactly as on the prototype; with the queue non-empty
// the PEs never see control flow at all.
func (vm *VM) RunSIMD(prog *m68k.Program) (RunResult, error) {
	if len(prog.Instrs) == 0 {
		return RunResult{}, fmt.Errorf("pasm: empty program")
	}
	vm.net.reset()
	vm.bar = newBarrier(vm.P)

	groups := make([]lockGroup, vm.Q)
	// One backing array each for the groups' enabled-PE lists.
	cpuBuf, idxBuf := make([]*m68k.CPU, vm.P), make([]int, vm.P)
	off := 0
	for g := range groups {
		vm.MCs[g].Queue.Reset()
		vm.MCs[g].Mask = fetchunit.AllEnabled(len(vm.MCs[g].PEs))
		mc := m68k.NewCPU(prog, vm.MCs[g].Mem)
		mc.FetchFromMem = true
		mc.DisableExecTable = vm.Cfg.DisableExecTable
		mc.A[7] = vm.MCs[g].Mem.Size() - 4
		if vm.TraceHook != nil {
			vm.TraceHook(fmt.Sprintf("MC%d", g), mc)
		}
		groups[g].mc = mc
		end := off + len(vm.MCs[g].PEs)
		groups[g].cpus, groups[g].pes = cpuBuf[off:off:end], idxBuf[off:off:end]
		off = end
	}
	pes := make([]*m68k.CPU, vm.P)
	for i, pe := range vm.PEs {
		cpu := m68k.NewCPU(prog, pe.Mem)
		cpu.FetchFromMem = false // instructions arrive from the queue
		cpu.FixedMulCycles = vm.Cfg.FixedMulCycles
		cpu.DisableExecTable = vm.Cfg.DisableExecTable
		pe.dev.bar = vm.bar
		cpu.Dev = pe.dev
		if vm.TraceHook != nil {
			vm.TraceHook(fmt.Sprintf("PE%d", i), cpu)
		}
		pes[i] = cpu
	}
	obsOn := vm.wireObsPEs(pes)
	mcUnits := make([]int, vm.Q)
	for g := range groups {
		mcUnits[g] = vm.wireObsMC(g, groups[g].mc)
	}

	// Fused MULU runs replay through the lockstep queue with closed-form
	// arithmetic (lockstepMuluRun). They engage only when the
	// superinstruction tier is active (not the DisableExecTable
	// reference path), nothing observes individual instructions, and
	// every group's enabled PEs are live and untraced (fusable,
	// recomputed whenever a group's PE set or state changes).
	superTier := !vm.Cfg.DisableExecTable && vm.Obs == nil
	var tab m68k.BroadcastTable
	if superTier {
		tab = prog.BroadcastTable()
	}
	fusable := false
	refresh := func() {
		fusable = superTier
		for g := range groups {
			groups[g].rebuild(vm.MCs[g], pes)
			fusable = fusable && groups[g].fused
		}
	}
	refresh()

	var mcSteps int64
	var mcStall, peStarve int64
	for {
		// Advance every live MC to its next BCAST (or halt).
		anyLive := false
		for g := range groups {
			gr := &groups[g]
			gr.issued = false
			if gr.halted {
				continue
			}
			mc := gr.mc
			for {
				st := mc.Step()
				mcSteps++
				if mcSteps > vm.Cfg.MaxSteps {
					return RunResult{}, fmt.Errorf("pasm: MC exceeded %d steps (runaway control program?)", vm.Cfg.MaxSteps)
				}
				switch st {
				case m68k.StatusOK:
					continue
				case m68k.StatusSetMask:
					// The MC wrote the Fetch Unit mask register:
					// subsequent broadcasts reach only the enabled PEs
					// of this group (disabled PEs wait, not
					// participating in instruction release).
					vm.MCs[g].Mask = fetchunit.Mask(mc.LastMask)
					refresh()
					continue
				case m68k.StatusBcast:
					// The Fetch Unit controller must be free before the
					// MC's control-word write completes.
					if free := vm.MCs[g].Queue.CtrlFree(); free > mc.Clock {
						stall := free - mc.Clock
						mc.Clock = free
						mc.Regions[m68k.RegionControl] += stall
						mcStall += stall
					}
					gr.blk, gr.issued = mc.LastBcast, true
				case m68k.StatusHalted:
					gr.halted = true
				case m68k.StatusBlocked:
					return RunResult{}, fmt.Errorf("pasm: MC %d blocked on a device access at pc %d", g, mc.PC)
				default:
					return RunResult{}, fmt.Errorf("pasm: MC %d error: %w", g, mc.Err)
				}
				break
			}
			if gr.issued {
				anyLive = true
			}
		}
		if !anyLive {
			break // all MCs halted
		}
		// All groups execute the same program; their BCAST sequences
		// must agree.
		blk := groups[0].blk
		for g := range groups {
			if !groups[g].issued {
				return RunResult{}, fmt.Errorf("pasm: MC %d halted while others broadcast", g)
			}
			if groups[g].blk != blk {
				return RunResult{}, fmt.Errorf("pasm: MCs diverged: block [%d,%d) vs [%d,%d)",
					blk.Start, blk.End, groups[g].blk.Start, groups[g].blk.End)
			}
		}
		if blk.Len() == 0 {
			return RunResult{}, fmt.Errorf("pasm: empty broadcast block")
		}
		// Stream the block, instruction-major: per instruction, per
		// group: enqueue, release at max(ready, the group's latest
		// request), consume, execute on each enabled PE.
		for idx := blk.Start; idx < blk.End; idx++ {
			in := &prog.Instrs[idx]
			if !broadcastable(in) {
				return RunResult{}, fmt.Errorf("pasm: %s at instruction %d is not valid inside a broadcast block", in.Op, idx)
			}
			if fusable {
				if run, ok := tab.MuluRun(idx); ok {
					if n := min(run.Len, blk.End-idx); n > 1 {
						for g := range groups {
							if err := vm.lockstepMuluRun(g, &groups[g], run, n, &peStarve); err != nil {
								return RunResult{}, err
							}
						}
						idx += n - 1
						continue
					}
				}
			}
			for g := range groups {
				gr := &groups[g]
				// Enqueue, release and consume (nothing the PEs do
				// touches the queue), then execute.
				release, starve, err := vm.MCs[g].Queue.LockstepRun(gr.mc.Clock, int(in.Words), 1, gr.maxReq, 0)
				if err != nil {
					return RunResult{}, fmt.Errorf("pasm: group %d: %w", g, err)
				}
				peStarve += starve
				if err := vm.execLockstep(gr, in, idx, release); err != nil {
					return RunResult{}, err
				}
			}
			if in.Op == m68k.JMP {
				// The asynchronous section runs every PE of the
				// partition; a disabled PE never took the jump and
				// has no valid MIMD program counter.
				for g := range groups {
					if vm.MCs[g].Mask != fetchunit.AllEnabled(len(vm.MCs[g].PEs)) {
						return RunResult{}, fmt.Errorf("pasm: mixed-mode switch with disabled PEs (group %d mask %#x) is not supported", g, vm.MCs[g].Mask)
					}
				}
				// Mixed mode: every PE just took the broadcast jump
				// into its own program. Run the asynchronous section
				// (own-memory fetches, full device semantics) until
				// every PE jumps back into the SIMD space, then
				// continue the lockstep stream — the PEs' park times
				// become their next request times, so the rejoin is
				// the implicit Fetch Unit barrier.
				for _, cpu := range pes {
					cpu.FetchFromMem = true
				}
				vm.emitModeSwitch(pes, true)
				if err := vm.runDES(pes, true); err != nil {
					return RunResult{}, err
				}
				vm.emitModeSwitch(pes, false)
				for _, cpu := range pes {
					cpu.FetchFromMem = false
				}
				refresh()
			}
		}
	}

	res := RunResult{PEClocks: make([]int64, vm.P)}
	var critical *m68k.CPU
	for i, cpu := range pes {
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
	for g := range groups {
		res.MCInstrs += groups[g].mc.InstrCount
		if occ := vm.MCs[g].Queue.MaxOccupancy; occ > res.QueueMaxOccupancy {
			res.QueueMaxOccupancy = occ
		}
		res.QueueStallCycles += vm.MCs[g].Queue.StallCycles
	}
	res.MCStallCycles = mcStall
	res.PEStarveCycles = peStarve
	res.BarrierRounds = vm.bar.rounds
	res.NetTransfers = vm.net.transfers
	res.NetReconfigs = vm.net.reconfigs
	if obsOn {
		vm.finishObsPEs(pes)
		for g := range groups {
			vm.Obs.Finish(mcUnits[g], groups[g].mc.Clock, groups[g].mc.InstrCount)
		}
	}
	return res, nil
}

// lockGroup is one MC group's state while RunSIMD streams broadcast
// blocks.
type lockGroup struct {
	mc     *m68k.CPU
	halted bool
	// blk is the block the MC's latest BCAST issued (issued reports
	// whether it issued one this round).
	blk    m68k.BlockRange
	issued bool
	// cpus are the PEs the group's Fetch Unit mask enables, in PE
	// order, and pes their partition indices: rebuilt only when the
	// mask or the PEs' state changes, never per instruction.
	cpus []*m68k.CPU
	pes  []int
	// maxReq is the latest request clock among cpus (-1: none
	// enabled), the release rule's input. Each exec pass returns the
	// next one, so no release rescans the group.
	maxReq int64
	// fused reports whether every enabled PE can take the fused
	// MULU-run arithmetic: live (a PE halted in a mixed-mode section
	// only waits) and untraced (the fused run skips per-instruction
	// trace callbacks).
	fused bool
}

// rebuild recomputes the group's enabled PEs, latest request clock and
// fusability from mc's mask and the PEs' current state.
func (gr *lockGroup) rebuild(mc *MC, pes []*m68k.CPU) {
	gr.cpus, gr.pes = gr.cpus[:0], gr.pes[:0]
	gr.maxReq, gr.fused = -1, true
	for k, pe := range mc.PEs {
		if !mc.Mask.Enabled(k) {
			continue
		}
		cpu := pes[pe.Index]
		gr.cpus = append(gr.cpus, cpu)
		gr.pes = append(gr.pes, pe.Index)
		gr.maxReq = max(gr.maxReq, cpu.Clock)
		if cpu.Halted || cpu.Err != nil || cpu.Trace != nil {
			gr.fused = false
		}
	}
}

// execLockstep runs one released broadcast instruction on every
// enabled PE of a group and leaves the group's next request time in
// gr.maxReq. PEs that block on a device are retried until the whole
// group completes (a barrier read inside a broadcast block resolves
// this way; anything else that stays blocked is a program structure
// error).
func (vm *VM) execLockstep(gr *lockGroup, in *m68k.Instr, idx int, release int64) error {
	if vm.Obs != nil {
		for i, cpu := range gr.cpus {
			if wait := release - cpu.Clock; wait > 0 {
				vm.Obs.Emit(vm.obsPE[gr.pes[i]], obs.Event{
					Kind: obs.KindLockstepWait, Clock: release, Dur: wait,
				})
			}
		}
	}
	maxClock, st, k := m68k.ExecLockstep(gr.cpus, idx, release)
	if st == m68k.StatusOK {
		gr.maxReq = maxClock
		return nil
	}
	// Slow path: record blocked PEs (by position in the group) and
	// resume the pass after each.
	var blocked []int
	for base := 0; ; {
		switch st {
		case m68k.StatusOK:
		case m68k.StatusBlocked:
			blocked = append(blocked, base+k)
		default:
			pi := gr.pes[base+k]
			return fmt.Errorf("pasm: PE %d error in broadcast: %w", pi, gr.cpus[base+k].Err)
		}
		if base += k + 1; base >= len(gr.cpus) {
			break
		}
		_, st, k = m68k.ExecLockstep(gr.cpus[base:], idx, release)
	}
	// Retry blocked PEs; each full pass must make progress.
	for pass := 0; len(blocked) > 0; pass++ {
		if pass > vm.P+1 {
			return fmt.Errorf("pasm: PEs %v deadlocked in broadcast instruction %q", gr.peList(blocked), in)
		}
		var still []int
		for _, i := range blocked {
			switch _, st, _ := m68k.ExecLockstep(gr.cpus[i:i+1], idx, release); st {
			case m68k.StatusOK:
			case m68k.StatusBlocked:
				still = append(still, i)
			default:
				return fmt.Errorf("pasm: PE %d error in broadcast retry: %w", gr.pes[i], gr.cpus[i].Err)
			}
		}
		if len(still) == len(blocked) {
			return fmt.Errorf("pasm: PEs %v stuck in broadcast instruction %q (no progress)", gr.peList(still), in)
		}
		blocked = still
	}
	gr.maxReq = -1
	for _, cpu := range gr.cpus {
		gr.maxReq = max(gr.maxReq, cpu.Clock)
	}
	return nil
}

// peList maps positions in the group to partition PE indices (for
// error messages).
func (gr *lockGroup) peList(pos []int) []int {
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = gr.pes[p]
	}
	return out
}

// lockstepMuluRun streams a fused run of n identical MULUs through
// group g's Fetch Unit queue in one call instead of executing each
// member on each enabled PE.
//
// The equivalence argument: during block streaming the MC clock is
// fixed (the MC has already run ahead to its next BCAST), so every
// member is enqueued at the same issue time as on the reference path.
// Each PE's per-member cost (static base + the data-dependent multiply
// time of the invariant source register) is a constant c_p, so after
// the first release every enabled PE requests at release+c_p and the
// next release is max(ready, release+max_p(c_p)): no per-PE scan.
// Queue.LockstepRun replays the n Enqueue+Consume pairs with exactly
// the per-word queue evolution of the reference path. Interior flag
// writes are dead (every member overwrites NZVC; X is never touched),
// so only the final product, flags, clocks and region charges are
// materialized: the exact values the reference path leaves behind.
func (vm *VM) lockstepMuluRun(g int, gr *lockGroup, run m68k.MuluRun, n int, peStarve *int64) error {
	cost := func(cpu *m68k.CPU) int64 {
		if cpu.FixedMulCycles > 0 {
			return run.Base + cpu.FixedMulCycles
		}
		return run.Base + m68k.MuluCycles(uint16(cpu.D[run.Src]))
	}
	var cmax int64
	for _, cpu := range gr.cpus {
		cmax = max(cmax, cost(cpu))
	}
	release, starve, err := vm.MCs[g].Queue.LockstepRun(gr.mc.Clock, run.Words, n, gr.maxReq, cmax)
	if err != nil {
		return fmt.Errorf("pasm: group %d: %w", g, err)
	}
	*peStarve += starve
	gr.maxReq = -1
	for _, cpu := range gr.cpus {
		final := release + cost(cpu)
		cpu.Regions[run.Region] += final - cpu.Clock
		cpu.Clock = final
		cpu.InstrCount += int64(n)
		cpu.PC += n
		d := m68k.MuluRunProduct(cpu.D[run.Dst], cpu.D[run.Src], n)
		cpu.D[run.Dst] = d
		cpu.N, cpu.Z, cpu.V, cpu.C = d&0x80000000 != 0, d == 0, false, false
		gr.maxReq = max(gr.maxReq, final)
	}
	return nil
}

// broadcastable reports whether an operation may appear in a broadcast
// block: PEs have no program counter of their own in SIMD mode, so
// control flow cannot be broadcast.
func broadcastable(in *m68k.Instr) bool {
	switch in.Op {
	case m68k.BCC, m68k.DBCC, m68k.JSR, m68k.RTS,
		m68k.BCAST, m68k.SETMASK, m68k.HALT:
		return false
	case m68k.JMP:
		// A broadcast jump to a PE program label is the SIMD-to-MIMD
		// mode switch (paper Section 3): the PEs leave the lockstep
		// stream and execute asynchronously from their own memories
		// until they jump back into the SIMD space. Other jumps have
		// no meaning in a block.
		return in.Dst.Mode == m68k.ModeLabel
	}
	return true
}
