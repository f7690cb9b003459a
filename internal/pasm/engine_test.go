package pasm

import (
	"testing"
	"testing/quick"

	"repro/internal/m68k"
	"repro/internal/prng"
)

// TestMIMDNoDeviceOpsMatchesSoloTiming: a program that never touches a
// device must time identically under the DES engine and under a bare
// CPU run — the engine adds no phantom cycles.
func TestMIMDNoDeviceOpsMatchesSoloTiming(t *testing.T) {
	src := `
	moveq   #99, d1
l:	mulu.w  d1, d0
	add.w   d1, $2000
	dbra    d1, l
	halt
	`
	vm := newTestVM(t, 4, nil)
	res, err := vm.RunMIMD(m68k.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}

	solo := m68k.NewCPU(m68k.MustAssemble(src), m68k.NewMemory(1<<16))
	solo.Mem.WaitStates = vm.Cfg.DRAMWaitStates
	solo.Mem.RefreshPeriod = vm.Cfg.RefreshPeriod
	solo.Mem.RefreshStall = vm.Cfg.RefreshStall
	solo.FetchFromMem = true
	solo.A[7] = 1<<16 - 4
	if st := solo.Run(1 << 20); st != m68k.StatusHalted {
		t.Fatalf("solo status %v", st)
	}
	for i, c := range res.PEClocks {
		if c != solo.Clock {
			t.Errorf("PE %d clock %d != solo %d", i, c, solo.Clock)
		}
	}
}

// TestMIMDDeterministicUnderLoad: a randomized ring workload (every PE
// forwards random bytes around the ring with barriers interleaved)
// must be cycle-identical across repeated runs of the DES engine.
func TestMIMDDeterministicUnderLoad(t *testing.T) {
	const p = 8
	prog := m68k.MustAssemble(`
	movea.l	#$F10000, a0
	movea.l	#$F00000, a4
	move.w	$100, d4	; per-PE iteration skew
	move.w	#29, d5		; 30 rounds
round:	move.w	d4, d0
spin:	dbra	d0, spin
	move.w	(a4), d7	; barrier
	move.b	d5, (a0)	; send round number
	move.w	(a4), d7	; barrier
	move.b	2(a0), d1	; receive
	add.w	d1, d6
	dbra	d5, round
	move.w	d6, $102
	halt
	`)
	run := func() ([]int64, []uint32) {
		vm := newTestVM(t, p, nil)
		g := prng.New(42)
		for _, pe := range vm.PEs {
			pe.Mem.WriteWords(0x100, []uint16{uint16(g.Intn(500))})
		}
		res, err := vm.RunMIMD(prog)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]uint32, p)
		for i, pe := range vm.PEs {
			v, _ := pe.Mem.Read(0x102, m68k.Word)
			sums[i] = v
		}
		return res.PEClocks, sums
	}
	c1, s1 := run()
	c2, s2 := run()
	for i := range c1 {
		if c1[i] != c2[i] || s1[i] != s2[i] {
			t.Fatalf("run diverged at PE %d: clocks %d/%d sums %d/%d", i, c1[i], c2[i], s1[i], s2[i])
		}
	}
	// Every PE received each round number once: sum = 30*29/2... the
	// round counter runs 29..0, so sum = 435.
	for i, s := range s1 {
		if s != 435 {
			t.Errorf("PE %d: ring sum %d, want 435", i, s)
		}
	}
}

// TestRuntimeReconfigurationRing: PEs repeatedly retarget their
// circuits at run time (shift by 1, then by 2) and exchange data; the
// engine must serialize establishment conflicts correctly.
func TestRuntimeReconfigurationRing(t *testing.T) {
	const p = 4
	prog := m68k.MustAssemble(`
	movea.l	#$F10000, a0
	; circuit to (me+1) mod p, exchange, then to (me+2) mod p, exchange
	move.w	$100, d0	; dest 1
	move.w	d0, 8(a0)
	move.w	$104, d2	; my value
	move.b	d2, (a0)
	move.b	2(a0), d3	; from (me-1)
	move.w	d3, $106
	move.w	#$FFFF, 8(a0)	; release
	move.w	$102, d0	; dest 2
	move.w	d0, 8(a0)
	move.b	d2, (a0)
	move.b	2(a0), d3	; from (me-2)
	move.w	d3, $108
	halt
	`)
	vm := newTestVM(t, p, nil)
	for i, pe := range vm.PEs {
		pe.Mem.WriteWords(0x100, []uint16{
			uint16((i + 1) % p), uint16((i + 2) % p), uint16(50 + i),
		})
	}
	res, err := vm.RunMIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, pe := range vm.PEs {
		v1, _ := pe.Mem.Read(0x106, m68k.Word)
		v2, _ := pe.Mem.Read(0x108, m68k.Word)
		if v1 != uint32(50+(i-1+p)%p) {
			t.Errorf("PE %d: shift-1 received %d, want %d", i, v1, 50+(i-1+p)%p)
		}
		if v2 != uint32(50+(i-2+p)%p) {
			t.Errorf("PE %d: shift-2 received %d, want %d", i, v2, 50+(i-2+p)%p)
		}
	}
	if res.NetReconfigs != 2*p {
		t.Errorf("reconfigs = %d, want %d", res.NetReconfigs, 2*p)
	}
}

// Property: random compute-only programs time deterministically and
// region accounting always covers the clock on every PE.
func TestEngineAccountingProperty(t *testing.T) {
	f := func(seed uint32) bool {
		g := prng.New(seed)
		// Build a small random straight-line compute program.
		src := "\tmoveq\t#" + string(rune('0'+g.Intn(10))) + ", d1\n"
		for i := 0; i < 5+g.Intn(10); i++ {
			switch g.Intn(4) {
			case 0:
				src += "\tmulu.w\td1, d2\n"
			case 1:
				src += "\tadd.w\td1, d3\n"
			case 2:
				src += "\tlsl.w\t#2, d3\n"
			default:
				src += "\tmove.w\td3, $2000\n"
			}
		}
		src += "\thalt\n"
		prog, err := m68k.Assemble(src)
		if err != nil {
			return false
		}
		cfg := DefaultConfig()
		cfg.PEMemBytes = 1 << 16
		vm, err := NewVM(cfg, 2)
		if err != nil {
			return false
		}
		if err := vm.EstablishShift(); err != nil {
			return false
		}
		res, err := vm.RunMIMD(prog)
		if err != nil {
			return false
		}
		var sum int64
		for _, v := range res.Regions {
			sum += v
		}
		return sum == res.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEqualClockDeviceOpsLowestIndexFirst pins the engine's tie-break:
// device operations at the same clock are performed in ascending PE
// index order. PEs 0-2 run identical code, so they drop their static
// circuits and ask for a circuit to PE 3 at the same clock; only one
// circuit can reach a line, so the others are refused until the
// holder sends its index byte and releases. PE 3 must therefore
// receive 0, 1, 2 in that order.
func TestEqualClockDeviceOpsLowestIndexFirst(t *testing.T) {
	const p = 4
	prog := m68k.MustAssemble(`
	movea.l	#$F10000, a0
	movea.l	#$F10002, a1
	move.w	$100, d0	; PE index
	cmpi.w	#3, d0
	beq	sink
	move.w	#$FFFF, 8(a0)	; drop the static circuit
	move.w	#3, 8(a0)	; circuit to PE 3 (conflicts: one at a time)
	move.b	d0, (a0)
	move.w	#$FFFF, 8(a0)	; release it for the next PE
	halt
sink:	move.b	(a1), d1
	move.b	(a1), d2
	move.b	(a1), d3
	move.b	d1, $200
	move.b	d2, $201
	move.b	d3, $202
	halt
	`)
	vm := newTestVM(t, p, nil)
	for i, pe := range vm.PEs {
		if err := pe.Mem.WriteWords(0x100, []uint16{uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vm.RunMIMD(prog); err != nil {
		t.Fatal(err)
	}
	var got [3]uint32
	for i := range got {
		got[i], _ = vm.PEs[3].Mem.Read(0x200+uint32(i), m68k.Byte)
	}
	if got != [3]uint32{0, 1, 2} {
		t.Errorf("PE 3 received senders %v, want [0 1 2] (index order)", got)
	}
}

// TestDeadlockListsWaitersAscending pins the deadlock report: the
// waiting PEs are listed in ascending index order, whatever order they
// blocked in. PE 3 blocks on its receive register first; PE 1 spins
// before blocking on its own; the even PEs halt without sending.
func TestDeadlockListsWaitersAscending(t *testing.T) {
	prog := m68k.MustAssemble(`
	movea.l	#$F10002, a1
	move.w	$100, d0	; PE index
	btst	#0, d0
	beq	done
	cmpi.w	#3, d0
	beq	recv
	move.w	#200, d2
spin:	dbra	d2, spin
recv:	move.b	(a1), d1	; nobody sends: blocks forever
done:	halt
	`)
	vm := newTestVM(t, 4, nil)
	for i, pe := range vm.PEs {
		if err := pe.Mem.WriteWords(0x100, []uint16{uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := vm.RunMIMD(prog)
	const want = "pasm: deadlock: PEs [1 3] waiting with no pending events"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
