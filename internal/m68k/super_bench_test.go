package m68k

import "testing"

// benchKernel is the shape of the matmul inner-product loop the
// paper's experiments spend their cycles in: pointer-walking loads,
// a data-dependent MULU, a read-modify-write accumulate, and a DBcc
// terminator — plus an artificial muls chain like the fig7 rows.
const benchKernel = `
	.equ SRC, $1000
	.equ DST, $2000
	movea.l #SRC, a0
	movea.l #DST, a1
	move.w  #$55AA, d2
	move.w  #255, d6
rloop:	move.w  (a0)+, d0
	mulu.w  d2, d0
	add.w   d0, (a1)+
	mulu.w  d2, d5
	mulu.w  d2, d5
	mulu.w  d2, d5
	dbra    d6, rloop
	halt
`

// benchRun measures steady-state interpretation of the kernel on one
// CPU with DRAM timing enabled, the configuration the MIMD/SISD
// experiment rows run under.
func benchRun(b *testing.B, disableTable bool) {
	prog := MustAssemble(benchKernel)
	mem := NewMemory(1 << 16)
	mem.WaitStates = 1
	mem.RefreshPeriod = 256
	mem.RefreshStall = 2
	c := NewCPU(prog, mem)
	c.FetchFromMem = true
	c.DisableExecTable = disableTable
	c.A[7] = 0x8000
	if st := c.Run(1 << 20); st != StatusHalted {
		b.Fatalf("warmup status %v (err=%v)", st, c.Err)
	}
	instrs := c.InstrCount
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.Mem.Reset()
		c.A[7] = 0x8000
		if st := c.Run(1 << 20); st != StatusHalted {
			b.Fatalf("status %v (err=%v)", st, c.Err)
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "mips")
}

func BenchmarkInterpreterReference(b *testing.B) { benchRun(b, true) }
func BenchmarkInterpreterSuper(b *testing.B)     { benchRun(b, false) }
