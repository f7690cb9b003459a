// Observability wiring: connects a run's CPUs, device buses and Fetch
// Unit queues to the recorder attached via Config.Obs/VM.Obs. All
// hooks are nil-checked at the publication site, so a detached
// recorder leaves the hot paths untouched; attached, each simulated
// unit publishes to its own buffer/registry, and recording is
// lock-free because a run is advanced by one host goroutine.
package pasm

import (
	"fmt"
	"strings"

	"repro/internal/m68k"
	"repro/internal/obs"
)

// wireObsPEs registers one recorder unit per PE, attaches the
// per-instruction CPU hook, and points the device buses at the
// recorder (or detaches them when no recorder is set). Returns true
// when a recorder is attached.
func (vm *VM) wireObsPEs(cpus []*m68k.CPU) bool {
	if vm.Obs == nil {
		for _, pe := range vm.PEs {
			pe.dev.rec = nil
		}
		return false
	}
	if vm.obsPE == nil {
		vm.obsPE = make([]int, vm.P)
	}
	for i, pe := range vm.PEs {
		unit := vm.Obs.Unit(fmt.Sprintf("PE%d", i))
		vm.obsPE[i] = unit
		pe.dev.rec = vm.Obs
		pe.dev.unit = unit
		vm.Obs.AttachCPU(unit, cpus[i])
	}
	return true
}

// Disasm names the instructions of a recording of prog for the
// exporters (obs.WriteChromeTrace, obs.WriteListing): the MCs' trace
// PCs and those of PEs run by RunMIMD index prog. PEs run by RunSIMD
// (SIMD and mixed mode) are named by mnemonic: in lockstep a PE has no
// program counter of its own, and its trace PC counts the broadcast
// instructions it has executed.
func Disasm(prog *m68k.Program, simd bool) obs.Disasm {
	return func(unit string, pc int) string {
		if simd && strings.HasPrefix(unit, "PE") || pc < 0 || pc >= len(prog.Instrs) {
			return ""
		}
		return prog.Instrs[pc].String()
	}
}

// finishObsPEs records each PE's end-of-run totals.
func (vm *VM) finishObsPEs(cpus []*m68k.CPU) {
	if vm.Obs == nil {
		return
	}
	for i, cpu := range cpus {
		vm.Obs.Finish(vm.obsPE[i], cpu.Clock, cpu.InstrCount)
	}
}

// wireObsMC registers one recorder unit per MC, attaches the MC CPU
// hook, and observes the group's Fetch Unit queue (enqueue completion,
// instruction release, occupancy after both). When no recorder is set
// it clears any hooks a previous run installed. Returns the MC's unit
// id (unused when detached).
func (vm *VM) wireObsMC(g int, cpu *m68k.CPU) int {
	queue := vm.MCs[g].Queue
	if vm.Obs == nil {
		queue.OnEnqueue = nil
		queue.OnConsume = nil
		return 0
	}
	rec := vm.Obs
	unit := rec.Unit(fmt.Sprintf("MC%d", g))
	rec.AttachCPU(unit, cpu)
	queue.OnEnqueue = func(issue, ready int64, words, pending int) {
		rec.Emit(unit, obs.Event{
			Kind: obs.KindFetchEnqueue, Clock: ready,
			Dur: ready - issue, Arg: int64(words),
		})
		rec.Emit(unit, obs.Event{Kind: obs.KindQueueDepth, Clock: ready, Arg: int64(pending)})
	}
	queue.OnConsume = func(t int64, words, pending int) {
		rec.Emit(unit, obs.Event{Kind: obs.KindFetchRelease, Clock: t, Arg: int64(words)})
		rec.Emit(unit, obs.Event{Kind: obs.KindQueueDepth, Clock: t, Arg: int64(pending)})
	}
	return unit
}

// emitModeSwitch publishes every PE's mode transition in a mixed
// SIMD/MIMD program (toMIMD: entering the asynchronous section at its
// current clock; otherwise rejoining the lockstep stream).
func (vm *VM) emitModeSwitch(cpus []*m68k.CPU, toMIMD bool) {
	if vm.Obs == nil {
		return
	}
	arg := int64(0)
	if toMIMD {
		arg = 1
	}
	for i, cpu := range cpus {
		vm.Obs.Emit(vm.obsPE[i], obs.Event{Kind: obs.KindModeSwitch, Clock: cpu.Clock, Arg: arg})
	}
}
