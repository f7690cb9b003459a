package m68k

import (
	"fmt"
	"math/rand"
	"testing"
)

// superOpEdges are the operand values the micro-op differential tests
// run on: zero, one, and the sign bits and all-ones of every size.
var superOpEdges = []uint32{0, 1, 0x80, 0x8000, 0x80000000, 0xFFFFFFFF}

// diffSuperOp compiles the one-instruction program src, checks that it
// lowers to kind, then executes it once through the reference handler
// and once through the micro-op, on every pair of edge values in d3
// (destination) and d4 (source, also stored at $100) and both entry
// flag states (so a flag the micro-op forgets to write shows). The data
// registers, X, N, Z, V, C, the cycle count and the word at $100 must
// agree.
func diffSuperOp(t *testing.T, src string, kind uint8) {
	t.Helper()
	prog := MustAssemble(src)
	sop := &prog.super()[0]
	if sop.kind != kind {
		t.Fatalf("%s: compiled to kind %d, want %d", src, sop.kind, kind)
	}
	for _, dst := range superOpEdges {
		for _, s := range superOpEdges {
			for _, flag := range []bool{false, true} {
				ref, sup := NewCPU(prog, NewMemory(4096)), NewCPU(prog, NewMemory(4096))
				for _, c := range []*CPU{ref, sup} {
					c.D[3], c.D[4] = dst, s
					c.A[0] = 0x100
					if err := c.Mem.Write(0x100, Long, s); err != nil {
						t.Fatal(err)
					}
					c.X, c.N, c.Z, c.V, c.C = flag, flag, flag, flag, flag
				}
				if st := ref.exec(&prog.Instrs[0], 0); st != StatusOK {
					t.Fatalf("%s: reference status %v", src, st)
				}
				if st := sup.execSuperOp(sop, 0, 0, 1); st != StatusOK {
					t.Fatalf("%s: super status %v", src, st)
				}
				refMem, _ := ref.Mem.Read(0x100, Long)
				supMem, _ := sup.Mem.Read(0x100, Long)
				got := [8]any{sup.D, sup.X, sup.N, sup.Z, sup.V, sup.C, sup.Clock, supMem}
				want := [8]any{ref.D, ref.X, ref.N, ref.Z, ref.V, ref.C, ref.Clock, refMem}
				if got != want {
					t.Errorf("%s on d3=%#x d4=%#x (flags %v): super D/X/N/Z/V/C/clock/mem %v, reference %v",
						src, dst, s, flag, got, want)
				}
			}
		}
	}
}

// TestSuperShiftImmMatchesReference checks the closed-form immediate
// shift micro-op against the reference bit-by-bit shift handler for
// every op x size x count.
func TestSuperShiftImmMatchesReference(t *testing.T) {
	for _, op := range []string{"lsl", "lsr"} {
		for _, sz := range []string{"b", "w", "l"} {
			for count := 1; count <= 8; count++ {
				diffSuperOp(t, fmt.Sprintf("%s.%s #%d, d3", op, sz, count), skShiftI)
			}
		}
	}
}

// TestSuperAluMatchesReference checks the ALU micro-ops, whose ADD and
// SUB flags are computed in place, against the reference handlers for
// every op x size in the register, memory-source and read-modify-write
// forms.
func TestSuperAluMatchesReference(t *testing.T) {
	for _, op := range []string{"add", "sub", "and", "or", "eor"} {
		for _, sz := range []string{"b", "w", "l"} {
			diffSuperOp(t, fmt.Sprintf("%s.%s d4, d3", op, sz), skAluRR)
			diffSuperOp(t, fmt.Sprintf("%s.%s d4, (a0)", op, sz), skAluM)
			if op != "eor" { // EOR has no memory-source form
				diffSuperOp(t, fmt.Sprintf("%s.%s (a0), d3", op, sz), skAluMR)
			}
		}
	}
	for _, src := range []string{"addq.w #3, d3", "subq.l #8, d3", "addi.b #$7F, d3", "subi.w #$8001, (a0)", "addq.b #1, (a0)"} {
		kind := skAluRR
		if src[len(src)-4:] == "(a0)" {
			kind = skAluM
		}
		diffSuperOp(t, src, kind)
	}
}

// TestMuluRunProductMatchesChain checks the square-and-multiply form
// of a fused MULU run against the dependent multiply chain it
// replaces.
func TestMuluRunProductMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	edges := []uint32{0, 1, 2, 0xFFFF, 0x10000, 0x8000, 0xFFFFFFFF}
	for i := 0; i < 2000; i++ {
		d, s := rng.Uint32(), rng.Uint32()
		if i < len(edges)*len(edges) {
			d, s = edges[i/len(edges)], edges[i%len(edges)]
		}
		n := rng.Intn(70)
		want := d
		for k := 0; k < n; k++ {
			want = (want & 0xFFFF) * (s & 0xFFFF)
		}
		if got := MuluRunProduct(d, s, n); got != want {
			t.Fatalf("MuluRunProduct(%#x, %#x, %d) = %#x, chain gives %#x", d, s, n, got, want)
		}
	}
}
