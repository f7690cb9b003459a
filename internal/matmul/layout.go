// Package matmul implements the paper's matrix-multiplication
// workload: the columnar data layout of Figure 5, the parallel
// algorithm of Figure 3 (each PE owns n/p adjacent columns of A, B and
// C; A's columns rotate left through a static PE i -> PE (i-1) mod p
// circuit, internal moves being pointer swaps), and generators that
// emit MC68000 assembly for the four program variants measured in the
// paper: optimized serial (SISD), pure SIMD, pure MIMD with network
// polling, and the hybrid S/MIMD using Fetch-Unit barrier
// synchronization.
package matmul

import (
	"fmt"

	"repro/internal/m68k"
	"repro/internal/pasm"
)

// Mode selects one of the paper's four program variants.
type Mode int

// Program variants (paper Section 5).
const (
	// Serial is the optimized single-PE program (SISD), run on a
	// one-PE partition in MIMD mode.
	Serial Mode = iota
	// SIMD runs control flow on the MCs and broadcasts
	// data-processing instructions through the Fetch Unit queue.
	SIMD
	// MIMD runs complete asynchronous programs on the PEs, polling
	// the network transfer-register status around every transfer.
	MIMD
	// SMIMD is the hybrid: the MIMD program with transfers protected
	// by Fetch-Unit barrier reads instead of polling.
	SMIMD
	// Mixed is the paper's envisioned fine-grained decoupling: the
	// SIMD program, but each inner-loop element's multiply-accumulate
	// runs as an asynchronous MIMD burst (broadcast jump out, jump
	// back into the SIMD space), so only the variable-time grain
	// leaves lockstep.
	Mixed
)

func (m Mode) String() string {
	switch m {
	case Serial:
		return "SISD"
	case SIMD:
		return "SIMD"
	case MIMD:
		return "MIMD"
	case SMIMD:
		return "S/MIMD"
	case Mixed:
		return "Mixed"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// MaxMuls is the most inner-loop multiplies a program may have: one
// more would overflow the Fetch Unit queue with a SIMD block.
const MaxMuls = 64

// Spec describes one experiment configuration.
type Spec struct {
	// N is the matrix dimension (n x n), a power of two, 4..256 in the
	// paper.
	N int
	// P is the number of PEs (ignored for Serial, which uses 1).
	P int
	// Muls is the number of multiply instructions in the innermost
	// loop (the paper's dependent variable; 1 is the plain algorithm,
	// the extras are straight-line multiplies whose results are
	// discarded).
	Muls int
	// Mode selects the program variant.
	Mode Mode
}

// Validate checks a specification.
func (s Spec) Validate() error {
	switch {
	case s.N < 2 || s.N&(s.N-1) != 0:
		return fmt.Errorf("matmul: n=%d must be a power of two >= 2", s.N)
	case s.Mode != Serial && (s.P < 1 || s.P&(s.P-1) != 0):
		return fmt.Errorf("matmul: p=%d must be a power of two >= 1", s.P)
	case s.Mode != Serial && s.N < s.P:
		return fmt.Errorf("matmul: n=%d < p=%d leaves idle PEs", s.N, s.P)
	case s.Muls < 1:
		return fmt.Errorf("matmul: inner-loop multiplies %d < 1", s.Muls)
	case s.Muls > MaxMuls:
		return fmt.Errorf("matmul: inner-loop multiplies %d > %d (block would overflow the queue)", s.Muls, MaxMuls)
	}
	return nil
}

// p returns the effective partition size.
func (s Spec) p() int {
	if s.Mode == Serial {
		return 1
	}
	return s.P
}

// Layout is the per-PE memory map for a given (n, p): each PE holds
// n/p adjacent columns of each matrix, a pointer table TT indexing the
// (rotating) A columns, and a small variable area.
type Layout struct {
	N, P     int
	Cols     int    // n/p columns per PE
	ColBytes uint32 // bytes per column (2n)

	ABase  uint32 // Cols columns of A
	BBase  uint32 // Cols columns of B
	CBase  uint32 // Cols columns of C
	TTBase uint32 // Cols long-word column pointers
	IOff   uint32 // word: this PE's i*(n/p), pre-calculated (paper Sec. 4)
	VCount uint32 // word: v-loop working counter (MIMD variants)
	End    uint32 // first unused byte
}

// NewLayout computes the memory map.
func NewLayout(n, p int) (Layout, error) {
	if p < 1 || n < p || n%p != 0 {
		return Layout{}, fmt.Errorf("matmul: bad layout n=%d p=%d", n, p)
	}
	l := Layout{N: n, P: p, Cols: n / p, ColBytes: uint32(2 * n)}
	matBytes := uint32(l.Cols) * l.ColBytes
	l.ABase = 0x1000
	l.BBase = l.ABase + matBytes
	l.CBase = l.BBase + matBytes
	l.TTBase = l.CBase + matBytes
	l.IOff = l.TTBase + uint32(4*l.Cols)
	l.VCount = l.IOff + 2
	l.End = l.VCount + 2
	return l, nil
}

// MemBytes returns the PE memory size needed for this layout.
func (l Layout) MemBytes() uint32 {
	// Round up to a power of two with headroom for the stack.
	need := l.End + 4096
	size := uint32(1 << 12)
	for size < need {
		size <<= 1
	}
	return size
}

// equs renders the layout as assembler .equ definitions shared by all
// program generators.
func (l Layout) equs() string {
	return fmt.Sprintf(`	.equ N, %d
	.equ COLS, %d
	.equ COLBYTES, %d
	.equ MASK, %d
	.equ ABASE, $%X
	.equ BBASE, $%X
	.equ CBASE, $%X
	.equ TTBASE, $%X
	.equ IOFF, $%X
	.equ VCOUNT, $%X
	.equ NETX, $%X
	.equ SIMDSPACE, $%X
`, l.N, l.Cols, l.ColBytes, l.N-1,
		l.ABase, l.BBase, l.CBase, l.TTBase, l.IOff, l.VCount,
		pasm.AddrNetXmit, pasm.AddrSIMDSpace)
}

// Build generates and assembles the program for a spec, returning the
// program and the layout its data must follow.
func Build(spec Spec) (*m68k.Program, Layout, error) {
	if err := spec.Validate(); err != nil {
		return nil, Layout{}, err
	}
	l, err := NewLayout(spec.N, spec.p())
	if err != nil {
		return nil, Layout{}, err
	}
	src, err := Generate(spec)
	if err != nil {
		return nil, Layout{}, err
	}
	prog, err := m68k.Assemble(src)
	if err != nil {
		return nil, Layout{}, fmt.Errorf("matmul: generated program does not assemble: %w", err)
	}
	return prog, l, nil
}
