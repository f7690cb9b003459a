package m68k

import (
	"fmt"
	"testing"
)

// TestDecodedProgramExecutesIdentically is the strongest encoder
// property: assemble a program, encode it to machine words, decode it
// back, and run both against identical memories — final registers,
// flags, memory, instruction counts and cycle counts must all match.
func TestDecodedProgramExecutesIdentically(t *testing.T) {
	src := `
	.equ BUF, $1000
	movea.l #BUF, a0
	moveq   #63, d1
fill:	move.w  d1, (a0)+
	mulu.w  d1, d2
	dbra    d1, fill
	movea.l #BUF, a0
	moveq   #0, d3
	moveq   #63, d1
sum:	add.w   (a0)+, d3
	lsr.w   #1, d3
	bne     noinc
	addq.w  #1, d4
noinc:	dbra    d1, sum
	jsr     square
	halt
square:	mulu.w  d3, d3
	rts
	`
	orig := MustAssemble(src)
	words, err := orig.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(words)
	if err != nil {
		t.Fatal(err)
	}

	runOne := func(p *Program) *CPU {
		c := NewCPU(p, NewMemory(1<<16))
		c.Mem.WaitStates = 1
		c.Mem.RefreshPeriod = 256
		c.Mem.RefreshStall = 2
		c.FetchFromMem = true
		c.A[7] = 0x8000
		if st := c.Run(1 << 20); st != StatusHalted {
			t.Fatalf("status %v (err=%v)", st, c.Err)
		}
		return c
	}
	a := runOne(orig)
	b := runOne(decoded)

	if a.Clock != b.Clock {
		t.Errorf("cycles differ: %d vs %d", a.Clock, b.Clock)
	}
	if a.InstrCount != b.InstrCount {
		t.Errorf("instruction counts differ: %d vs %d", a.InstrCount, b.InstrCount)
	}
	if a.D != b.D || a.A != b.A {
		t.Errorf("registers differ:\n%v %v\n%v %v", a.D, a.A, b.D, b.A)
	}
	if a.N != b.N || a.Z != b.Z || a.V != b.V || a.C != b.C || a.X != b.X {
		t.Error("flags differ")
	}
	for addr := uint32(0x1000); addr < 0x1100; addr += 2 {
		va, _ := a.Mem.Read(addr, Word)
		vb, _ := b.Mem.Read(addr, Word)
		if va != vb {
			t.Errorf("memory differs at $%X: %d vs %d", addr, va, vb)
		}
	}
}

// TestEncodeDecodeIdempotent: decoding then re-encoding reproduces the
// exact machine words.
func TestEncodeDecodeIdempotent(t *testing.T) {
	src := `
	moveq   #5, d0
l:	mulu.w  d0, d1
	add.w   d1, $2000
	subq.w  #1, d0
	bne     l
	clr.b   $2002
	btst    #3, d1
	halt
	`
	p := MustAssemble(src)
	w1, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(w1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) != len(w2) {
		t.Fatalf("lengths differ: %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Errorf("word %d: %04X vs %04X", i, w1[i], w2[i])
		}
	}
}

// TestExecTableMatchesDynamicResolution: the pre-resolved execution
// table must cache exactly what the dynamic path recomputes per step —
// static cycle cost and fetch word count for every instruction.
func TestExecTableMatchesDynamicResolution(t *testing.T) {
	src := `
	.equ BUF, $1000
	movea.l #BUF, a0
	moveq   #15, d1
l:	move.w  d1, (a0)+
	mulu.w  d1, d2
	muls.w  d1, d3
	add.w   d1, d4
	addq.l  #2, a1
	subq.w  #1, d5
	lsl.w   #3, d6
	ror.w   #1, d6
	btst    #3, d6
	tst.w   d4
	cmp.w   d1, d4
	dbra    d1, l
	divu.w  #3, d2
	swap    d2
	exg     d2, d3
	ext.l   d7
	clr.w   $2000
	not.w   $2000
	neg.w   d7
	jsr     sub
	halt
sub:	nop
	rts
	`
	p := MustAssemble(src)
	tab := p.table()
	if len(tab) != len(p.Instrs) {
		t.Fatalf("table has %d entries for %d instructions", len(tab), len(p.Instrs))
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if got, want := tab[i].base, baseCycles(in); got != want {
			t.Errorf("instr %d (%s): table base %d != baseCycles %d", i, in.Op, got, want)
		}
		if got, want := tab[i].words, int64(in.Words); got != want {
			t.Errorf("instr %d (%s): table words %d != %d", i, in.Op, got, want)
		}
		if tab[i].fn == nil {
			t.Errorf("instr %d (%s): nil handler", i, in.Op)
		}
	}
}

// TestExecTableRunEquivalence: executing through the table fast path
// and through the dynamic reference path (DisableExecTable) must agree
// on cycles, instruction counts, registers, flags, and memory.
func TestExecTableRunEquivalence(t *testing.T) {
	src := `
	.equ BUF, $1000
	movea.l #BUF, a0
	moveq   #63, d1
fill:	move.w  d1, (a0)+
	mulu.w  d1, d2
	dbra    d1, fill
	movea.l #BUF, a0
	moveq   #0, d3
	moveq   #63, d1
sum:	add.w   (a0)+, d3
	lsr.w   #1, d3
	bne     noinc
	addq.w  #1, d4
noinc:	dbra    d1, sum
	jsr     square
	halt
square:	mulu.w  d3, d3
	rts
	`
	prog := MustAssemble(src)
	runOne := func(dynamic bool) *CPU {
		c := NewCPU(prog, NewMemory(1<<16))
		c.Mem.WaitStates = 1
		c.Mem.RefreshPeriod = 256
		c.Mem.RefreshStall = 2
		c.FetchFromMem = true
		c.DisableExecTable = dynamic
		c.A[7] = 0x8000
		if st := c.Run(1 << 20); st != StatusHalted {
			t.Fatalf("status %v (err=%v)", st, c.Err)
		}
		return c
	}
	table := runOne(false)
	dynamic := runOne(true)

	if table.Clock != dynamic.Clock {
		t.Errorf("cycles differ: table %d vs dynamic %d", table.Clock, dynamic.Clock)
	}
	if table.InstrCount != dynamic.InstrCount {
		t.Errorf("instruction counts differ: %d vs %d", table.InstrCount, dynamic.InstrCount)
	}
	if table.Regions != dynamic.Regions {
		t.Errorf("region accounting differs: %v vs %v", table.Regions, dynamic.Regions)
	}
	if table.D != dynamic.D || table.A != dynamic.A {
		t.Errorf("registers differ:\n%v %v\n%v %v", table.D, table.A, dynamic.D, dynamic.A)
	}
	if table.N != dynamic.N || table.Z != dynamic.Z || table.V != dynamic.V ||
		table.C != dynamic.C || table.X != dynamic.X {
		t.Error("flags differ")
	}
	for addr := uint32(0x1000); addr < 0x1100; addr += 2 {
		va, _ := table.Mem.Read(addr, Word)
		vb, _ := dynamic.Mem.Read(addr, Word)
		if va != vb {
			t.Errorf("memory differs at $%X: %d vs %d", addr, va, vb)
		}
	}
}

// TestDecodeRejectsGarbage: unsupported opcodes are reported, not
// silently misdecoded.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, words := range [][]uint16{
		{0xFFFF},         // line-F
		{0xA123},         // line-A
		{0x4E40},         // TRAP #0 (unsupported)
		{0x3200, 0x303C}, // truncated: move.w #imm missing the immediate
	} {
		if _, err := Decode(words); err == nil {
			t.Errorf("decoded garbage %04X", words)
		}
	}
}

// edgeWalk is a pointer walk whose loop body lowers to runLoop's
// generic micro-ops: a load, a store, a read-modify-write and a clear
// through four post-increment pointers. %s are the pointers' start
// addresses.
const edgeWalk = `
	movea.l #%d, a0
	movea.l #%d, a1
	movea.l #%d, a2
	movea.l #%d, a3
	move.w  #%d, d1
walk:	move.w  (a0)+, d0
	add.w   d1, d0
	move.w  d0, (a1)+
	add.w   d0, (a2)+
	clr.w   (a3)+
	addq.w  #1, d2
	dbra    d1, walk
	halt
`

// edgeKernel is the element-kernel shape runKernelLoop executes, with
// a muls chain.
const edgeKernel = `
	movea.l #%d, a0
	movea.l #%d, a1
	moveq   #3, d2
	move.w  #%d, d7
k:	move.w  (a0)+, d0
	mulu.w  d2, d0
	add.w   d0, (a1)+
	mulu.w  d2, d3
	mulu.w  d2, d3
	dbra    d7, k
	halt
`

// TestSuperTierAcrossBackingEdge: the superinstruction fast loops read
// memory's touched backing directly and must bail, not fault or write
// into a stale slice, when a walk runs past it. Each program starts
// its pointers inside the host-loaded backing (or with none at all)
// and walks across several growth edges; every tier, and the super
// tier in small budget slices, must match the reference Step path
// (DisableExecTable) in registers, flags, clock, regions, instruction
// count and every byte of memory.
func TestSuperTierAcrossBackingEdge(t *testing.T) {
	const size = 1 << 16
	const iters = 0x1400 // 10 KiB per pointer: crosses the 4, 8 and 16 KiB edges
	cases := []struct {
		name    string
		src     string
		preload uint32 // host-written words start here (0 = no preload)
		kern    bool
	}{
		{"walk-load-leads", fmt.Sprintf(edgeWalk, 0x0F00, 0x0800, 0x0600, 0x0400, iters-1), 0x0400, false},
		{"walk-store-leads", fmt.Sprintf(edgeWalk, 0x0400, 0x0FF0, 0x0600, 0x0800, iters-1), 0x0400, false},
		{"walk-rmw-leads", fmt.Sprintf(edgeWalk, 0x0400, 0x0600, 0x0FFE, 0x0800, iters-1), 0x0400, false},
		{"walk-clr-leads", fmt.Sprintf(edgeWalk, 0x0400, 0x0600, 0x0800, 0x0F80, iters-1), 0x0400, false},
		{"walk-unbacked", fmt.Sprintf(edgeWalk, 0x0400, 0x0600, 0x0800, 0x0A00, iters-1), 0, false},
		{"kernel-load-leads", fmt.Sprintf(edgeKernel, 0x0FF8, 0x0400, iters-1), 0x0400, true},
		{"kernel-store-leads", fmt.Sprintf(edgeKernel, 0x0400, 0x0FFC, iters-1), 0x0400, true},
		{"kernel-unbacked", fmt.Sprintf(edgeKernel, 0x0400, 0x0800, iters-1), 0, true},
		{"stack-at-top", `
	moveq   #5, d1
	jsr     outer
	halt
outer:	move.w  d1, -(a7)
	jsr     inner
	move.w  (a7)+, d2
	dbra    d1, outer
	rts
inner:	movea.l a7, a0
	move.w  #15, d3
fill:	move.w  d3, -(a0)
	dbra    d3, fill
	rts
`, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := MustAssemble(tc.src)
			loop, kern := false, false
			for _, op := range prog.super() {
				loop = loop || op.loopEnd != 0
				kern = kern || op.kern
			}
			if !loop || kern != tc.kern {
				t.Fatalf("program lowers to loop=%v kernel=%v, want a runLoop/runKernelLoop block", loop, kern)
			}
			run := func(table, super bool, slice int64) *CPU {
				c := NewCPU(prog, NewMemory(size))
				c.Mem.WaitStates = 1
				c.Mem.RefreshPeriod = 256
				c.Mem.RefreshStall = 2
				c.FetchFromMem = true
				c.DisableExecTable = !table
				c.DisableSuperinstructions = !super
				c.A[7] = c.Mem.Size() - 4
				if tc.preload != 0 {
					words := make([]uint16, 64)
					for i := range words {
						words[i] = uint16(0x1111 * (i + 1))
					}
					if err := c.Mem.WriteWords(tc.preload, words); err != nil {
						t.Fatal(err)
					}
				}
				st := StatusOK
				for st == StatusOK {
					st = c.Run(slice)
				}
				if st != StatusHalted {
					t.Fatalf("status %v (err=%v)", st, c.Err)
				}
				return c
			}
			ref := run(false, false, 1<<24)
			if len(ref.Mem.data) <= minBacking {
				t.Fatalf("backing stayed at %d bytes: the program never crossed an edge", len(ref.Mem.data))
			}
			for _, v := range []struct {
				name         string
				table, super bool
				slice        int64
			}{
				{"table", true, false, 1 << 24},
				{"super", true, true, 1 << 24},
				{"super-sliced", true, true, 37},
			} {
				got := run(v.table, v.super, v.slice)
				if got.Clock != ref.Clock || got.InstrCount != ref.InstrCount || got.Regions != ref.Regions {
					t.Errorf("%s: clock/instrs/regions %d/%d/%v, reference %d/%d/%v",
						v.name, got.Clock, got.InstrCount, got.Regions, ref.Clock, ref.InstrCount, ref.Regions)
				}
				if got.D != ref.D || got.A != ref.A || got.PC != ref.PC {
					t.Errorf("%s: registers differ:\n%v %v\n%v %v", v.name, got.D, got.A, ref.D, ref.A)
				}
				if got.N != ref.N || got.Z != ref.Z || got.V != ref.V || got.C != ref.C || got.X != ref.X {
					t.Errorf("%s: flags differ", v.name)
				}
				for a := uint32(0); a < size; a += 4 {
					x, _ := got.Mem.Read(a, Long)
					y, _ := ref.Mem.Read(a, Long)
					if x != y {
						t.Fatalf("%s: memory differs at $%X: %08X vs %08X", v.name, a, x, y)
					}
				}
			}
		})
	}
}
