package m68k

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// kernelProgram is the element kernel runKernelLoop executes, at
// instruction 0 with a chain tail of tail MULUs, followed by a HALT.
// The test sets the registers directly.
func kernelProgram(tail int) *Program {
	return MustAssemble("k:\tmove.w  (a0)+, d0\n\tmulu.w  d2, d0\n\tadd.w   d0, (a1)+\n" +
		strings.Repeat("\tmulu.w  d2, d3\n", tail) + "\tdbra    d7, k\n\thalt\n")
}

// TestKernelTimingMatchesReference is the stall-walk's property test:
// for random kernels the super tier, run in Run slices, must leave the
// machine exactly as the reference Step path (DisableExecTable) run in
// the same slices does — registers, flags, PC, clock, regions,
// instruction count, refresh phase, error and every byte of memory —
// after every slice. The generator covers refresh off (period 0), a
// period at or below the iteration length, period−stall ≤ 0, a zero
// stall, instruction fetches on and off, chain tails 0..31, a refresh
// deadline behind, at and ahead of the clock, slices that cut the
// kernel mid-iteration, and pointers that stop the fast path early at
// the backing's edge or run off the end of memory.
func TestKernelTimingMatchesReference(t *testing.T) {
	const size = 1 << 14
	progs := make([]*Program, 32)
	for i := range progs {
		progs[i] = kernelProgram(i)
		if !progs[i].super()[0].kern {
			t.Fatalf("tail %d: block 0 is not an element kernel", i)
		}
	}
	f := func(sel uint32, rperiod, rstall, rnext, rcount, rmult, rslice uint16, ra0, ra1 uint16) bool {
		tail := int(sel % 32)
		prog := progs[tail]
		perIter := int64(tail + 4)
		fetch := sel>>5&1 != 0
		var period, stall int64
		switch sel >> 6 & 7 {
		case 0:
			period = 0 // refresh off
		case 1:
			period = 1 + int64(rperiod%(uint16(perIter)*20)) // at or below one iteration
		case 2:
			period = 1 + int64(rperiod%4) // period−stall ≤ 0
			stall = period + int64(rstall%3)
		case 3:
			period = 256 // the prototype's
			stall = 2
		default:
			period = 1 + int64(rperiod%3000)
			stall = int64(rstall % 9)
		}
		if sel>>9&3 == 0 {
			stall = 0
		}
		clock := int64(1000 + rnext%500)
		var next int64
		switch sel >> 11 % 3 {
		case 0:
			next = clock - int64(rnext%700) // behind the clock
		case 1:
			next = clock // at it
		default:
			next = clock + 1 + int64(rnext%3000) // ahead of it
		}
		// Pointers: well inside the 4 KiB first backing, walking across
		// its edge (the fast path must stop at it), or running off the
		// end of memory (both paths fault identically).
		ptr := func(r uint16, mode uint32) uint32 {
			switch mode {
			case 0:
				return minBacking - 2*uint32(r%64) - 2
			case 1:
				return size - 2*uint32(r%48) - 2
			}
			return 0x200 + 2*uint32(r%0x500)
		}
		a0 := ptr(ra0, sel>>13&3)
		a1 := ptr(ra1, sel>>15&3)
		count := uint32(rcount % 200)
		mult := uint32(rmult)
		if sel>>17&1 != 0 {
			mult = 0xFFFF
		}
		slice := 1 + int64(rslice)%(3*perIter)
		if sel>>18&1 != 0 {
			slice = 1 << 20
		}
		fixed := sel>>19&1 != 0

		mk := func(reference bool) *CPU {
			c := NewCPU(prog, NewMemory(size))
			c.Mem.WaitStates = int64(sel >> 20 & 1)
			c.Mem.RefreshPeriod, c.Mem.RefreshStall = period, stall
			c.Mem.nextRefresh = next
			c.Clock = clock
			c.FetchFromMem = fetch
			c.DisableExecTable = reference
			if fixed {
				c.FixedMulCycles = 70
			}
			words := make([]uint16, 0x600)
			for i := range words {
				words[i] = uint16(0x9E37*i) ^ uint16(sel>>16)
			}
			if err := c.Mem.WriteWords(0x200, words); err != nil {
				t.Fatal(err)
			}
			c.A[0], c.A[1] = a0, a1
			c.D[2], c.D[3], c.D[7] = mult|0xABCD0000, uint32(rnext)*0x10001, 0x55550000|count
			return c
		}
		ref, got := mk(true), mk(false)
		label := fmt.Sprintf("tail=%d fetch=%v period=%d stall=%d clock=%d next=%d a0=$%X a1=$%X count=%d slice=%d",
			tail, fetch, period, stall, clock, next, a0, a1, count, slice)
		for range (int64(count)+1)*perIter/slice + 2 {
			rs, gs := ref.Run(slice), got.Run(slice)
			if rs != gs {
				t.Logf("%s: status %v, reference %v", label, gs, rs)
				return false
			}
			if !sameCPU(t, label, ref, got) {
				return false
			}
			if rs != StatusOK {
				return true
			}
		}
		t.Logf("%s: did not halt", label)
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// sameCPU reports (and logs) whether two CPUs are in the same machine
// state, refresh phase and error included.
func sameCPU(t *testing.T, label string, ref, got *CPU) bool {
	t.Helper()
	switch {
	case got.Clock != ref.Clock || got.InstrCount != ref.InstrCount || got.Regions != ref.Regions:
		t.Logf("%s: clock/instrs/regions %d/%d/%v, reference %d/%d/%v",
			label, got.Clock, got.InstrCount, got.Regions, ref.Clock, ref.InstrCount, ref.Regions)
	case got.Mem.nextRefresh != ref.Mem.nextRefresh:
		t.Logf("%s: nextRefresh %d, reference %d", label, got.Mem.nextRefresh, ref.Mem.nextRefresh)
	case got.D != ref.D || got.A != ref.A || got.PC != ref.PC:
		t.Logf("%s: registers differ:\n%v %v %d\n%v %v %d", label, got.D, got.A, got.PC, ref.D, ref.A, ref.PC)
	case got.N != ref.N || got.Z != ref.Z || got.V != ref.V || got.C != ref.C || got.X != ref.X:
		t.Logf("%s: flags differ", label)
	case fmt.Sprint(got.Err) != fmt.Sprint(ref.Err):
		t.Logf("%s: error %v, reference %v", label, got.Err, ref.Err)
	default:
		x, y := got.Mem.data, ref.Mem.data
		if len(x) > len(y) {
			x, y = y, x
		}
		if !bytes.Equal(x, y[:len(x)]) || bytes.ContainsFunc(y[len(x):], func(r rune) bool { return r != 0 }) {
			t.Logf("%s: memory differs", label)
			return false
		}
		return true
	}
	return false
}
