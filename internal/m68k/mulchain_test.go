package m68k

import (
	"fmt"
	"strings"
	"testing"
)

// mulsChainProgram builds one of three programs around a chain of c
// `mulu.w d2, d3`: the element kernel runKernelLoop executes (chain
// after the multiply-accumulate), a generic self-loop runLoop executes
// (the chain is a fused run inside it), or a chain in a block that is
// not a self-loop, so runSuper's fused-run arm executes it. The
// multiplier d2 comes from $100, so its data-dependent MULU time
// varies with the test's data.
func mulsChainProgram(shape string, c int) string {
	chain := strings.Repeat("\tmulu.w  d2, d3\n", c)
	head := `
	movea.l #$0400, a0
	movea.l #$0800, a1
	move.w  $100, d2
	move.w  $102, d3
	move.w  #39, d7
`
	switch shape {
	case "kernel":
		return head + "k:\tmove.w  (a0)+, d0\n\tmulu.w  d2, d0\n\tadd.w   d0, (a1)+\n" +
			chain + "\tdbra    d7, k\n\thalt\n"
	case "loop":
		return head + "k:\tadd.w   d7, d4\n" + chain + "\tdbra    d7, k\n\thalt\n"
	default: // "straight": the block ends in a Bcc, not a DBcc to itself
		return head + "k:\tadd.w   d7, d4\n" + chain + "\tsubq.w  #1, d7\n\tbne     k\n\thalt\n"
	}
}

// TestSuperMulsChainsMatchReference is the super tier's differential
// for element kernels and loops with muls chains of 1..31 members: the
// stall walk and closed-form product of runKernelLoop's chain tail,
// runLoop's and runSuper's fused-run arms must reproduce the reference
// Step path (DisableExecTable) member by member. Every chain runs with
// instruction fetches from memory on and off, the FixedMulCycles
// ablation on and off, and DRAM refresh on and off; the table and
// super tiers run to completion and, for the super tier, also in Run
// budgets that cut the program mid-chain and mid-kernel. Registers,
// flags, PC, clock, regions, instruction count and memory must match.
func TestSuperMulsChainsMatchReference(t *testing.T) {
	const size = 1 << 13
	multipliers := []uint16{3, 0xA5A5, 0xFFFF}
	for _, shape := range []string{"kernel", "loop", "straight"} {
		for c := 1; c <= 31; c++ {
			prog := MustAssemble(mulsChainProgram(shape, c))
			kern, loop, run := false, false, false
			for _, op := range prog.super() {
				kern = kern || op.kern
				loop = loop || op.loopEnd != 0
				run = run || op.kind == skMuluRun
			}
			if kern != (shape == "kernel") || loop != (shape != "straight") || run != (c > 1) {
				t.Fatalf("%s c=%d lowers to kernel=%v loop=%v fused=%v", shape, c, kern, loop, run)
			}
			perIter := int64(c + 2)
			if shape == "kernel" {
				perIter = int64(c + 4)
			}
			for variant := 0; variant < 8; variant++ {
				fetch, fixed, refresh := variant&1 != 0, variant&2 != 0, variant&4 != 0
				mult := multipliers[(c+variant)%len(multipliers)]
				exec := func(table, super bool, slice int64) *CPU {
					cpu := NewCPU(prog, NewMemory(size))
					cpu.Mem.WaitStates = 1
					if refresh {
						cpu.Mem.RefreshPeriod = 256
						cpu.Mem.RefreshStall = 2
					}
					cpu.FetchFromMem = fetch
					if fixed {
						cpu.FixedMulCycles = 70
					}
					cpu.DisableExecTable = !table
					cpu.A[7] = size - 4
					words := make([]uint16, 0x300)
					for i := range words {
						words[i] = uint16(0x9E37 * (i + c))
					}
					words[0], words[1] = mult, uint16(c*0x1111)
					if err := cpu.Mem.WriteWords(0x100, words); err != nil {
						t.Fatal(err)
					}
					st := StatusOK
					for st == StatusOK {
						if table && !super {
							st = stepRun(cpu, slice)
						} else {
							st = cpu.Run(slice)
						}
					}
					if st != StatusHalted {
						t.Fatalf("status %v (err=%v)", st, cpu.Err)
					}
					return cpu
				}
				ref := exec(false, false, 1<<24)
				for _, v := range []struct {
					table, super bool
					slice        int64
				}{
					{true, false, 1 << 24},
					{true, true, 1 << 24},
					{true, true, int64(c/2 + 1)},           // cuts inside chains
					{true, true, perIter + int64(c/3) + 1}, // cuts across kernel iterations
					{true, true, 7},
				} {
					got := exec(v.table, v.super, v.slice)
					label := fmt.Sprintf("%s c=%d fetch=%v fixed=%v refresh=%v super=%v slice=%d",
						shape, c, fetch, fixed, refresh, v.super, v.slice)
					diffCPUs(t, label, ref, got, size)
				}
			}
		}
	}
}

// diffCPUs fails the test unless two CPUs ended in the same machine
// state: registers, flags, PC, clock, regions, instruction count and
// every byte of a size-byte memory.
func diffCPUs(t *testing.T, label string, ref, got *CPU, size uint32) {
	t.Helper()
	if got.Clock != ref.Clock || got.InstrCount != ref.InstrCount || got.Regions != ref.Regions {
		t.Fatalf("%s: clock/instrs/regions %d/%d/%v, reference %d/%d/%v",
			label, got.Clock, got.InstrCount, got.Regions, ref.Clock, ref.InstrCount, ref.Regions)
	}
	if got.D != ref.D || got.A != ref.A || got.PC != ref.PC {
		t.Fatalf("%s: registers differ:\n%v %v %d\n%v %v %d", label, got.D, got.A, got.PC, ref.D, ref.A, ref.PC)
	}
	if got.N != ref.N || got.Z != ref.Z || got.V != ref.V || got.C != ref.C || got.X != ref.X {
		t.Fatalf("%s: flags differ", label)
	}
	for a := uint32(0); a < size; a += 4 {
		x, _ := got.Mem.Read(a, Long)
		y, _ := ref.Mem.Read(a, Long)
		if x != y {
			t.Fatalf("%s: memory differs at $%X: %08X vs %08X", label, a, x, y)
		}
	}
}
