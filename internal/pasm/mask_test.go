package pasm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/m68k"
	"repro/internal/obs"
)

// TestSIMDMasking exercises the Fetch Unit mask register: the MC
// disables a subset of its PEs, broadcasts, and re-enables them.
// Disabled PEs must not execute the masked instructions ("Disabled PEs
// do not participate in the instruction and wait until an instruction
// is broadcast for which they are enabled", paper Section 3) and must
// not participate in instruction release.
func TestSIMDMasking(t *testing.T) {
	vm := newTestVM(t, 4, nil)
	prog := m68k.MustAssemble(`
		bcast   init
		setmask #5            ; enable PEs 0 and 2 only
		moveq   #9, d0
l:	bcast   addone
	dbra    d0, l
		setmask #15           ; everyone back
		bcast   store
		halt
		.block  init
		clr.w   d0
		.endblock
		.block  addone
		addq.w  #1, d0
		.endblock
		.block  store
		move.w  d0, $100
		.endblock
	`)
	res, err := vm.RunSIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{10, 0, 10, 0}
	for i, pe := range vm.PEs {
		v, _ := pe.Mem.Read(0x100, m68k.Word)
		if v != want[i] {
			t.Errorf("PE %d: d0 = %d, want %d", i, v, want[i])
		}
	}
	// Disabled PEs idle during the masked section: their clocks lag at
	// the store release, then all converge at the final instruction.
	if res.PEClocks[0] != res.PEClocks[1] {
		t.Errorf("final clocks diverge: %v", res.PEClocks)
	}
}

// TestSIMDMaskFromRegister covers the register form of SETMASK.
func TestSIMDMaskFromRegister(t *testing.T) {
	vm := newTestVM(t, 2, nil)
	prog := m68k.MustAssemble(`
		moveq   #1, d1        ; MC register: enable PE 0 only
		setmask d1
		bcast   mark
		setmask #3
		halt
		.block  mark
		move.w  $100, d0
		addq.w  #7, d0
		move.w  d0, $100
		.endblock
	`)
	for _, pe := range vm.PEs {
		pe.Mem.WriteWords(0x100, []uint16{100})
	}
	if _, err := vm.RunSIMD(prog); err != nil {
		t.Fatal(err)
	}
	v0, _ := vm.PEs[0].Mem.Read(0x100, m68k.Word)
	v1, _ := vm.PEs[1].Mem.Read(0x100, m68k.Word)
	if v0 != 107 || v1 != 100 {
		t.Errorf("got %d, %d; want 107, 100", v0, v1)
	}
}

// TestMaskedReleaseDoesNotWaitForDisabledPEs checks the timing
// property: a long-running disabled PE must not delay release of
// instructions it does not participate in... which cannot happen in
// pure SIMD (the disabled PE is idle), so the test verifies the dual:
// a disabled PE's clock does not advance while it is masked out.
func TestMaskedPEClockFrozen(t *testing.T) {
	vm := newTestVM(t, 2, nil)
	prog := m68k.MustAssemble(`
		setmask #1
		moveq   #99, d0
l:	bcast   work
	dbra    d0, l
		halt
		.block  work
		mulu.w  d1, d2
		.endblock
	`)
	res, err := vm.RunSIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.PEClocks[1] != 0 {
		t.Errorf("disabled PE clock = %d, want 0", res.PEClocks[1])
	}
	if res.PEClocks[0] == 0 {
		t.Error("enabled PE did no work")
	}
}

// TestSETMASKRejectedOnPE: the mask register belongs to the MC; a PE
// executing SETMASK in MIMD mode is a program error.
func TestSETMASKRejectedOnPE(t *testing.T) {
	vm := newTestVM(t, 2, nil)
	prog := m68k.MustAssemble("setmask #3\n halt")
	if _, err := vm.RunMIMD(prog); err == nil {
		t.Error("SETMASK on a PE accepted in MIMD mode")
	}
}

// TestSETMASKNotBroadcastable: SETMASK inside a broadcast block is
// rejected by the SIMD executor.
func TestSETMASKNotBroadcastable(t *testing.T) {
	vm := newTestVM(t, 2, nil)
	prog := m68k.MustAssemble(`
		bcast   bad
		halt
		.block  bad
		setmask #1
		.endblock
	`)
	if _, err := vm.RunSIMD(prog); err == nil {
		t.Error("SETMASK inside a block accepted")
	}
}

// maskedRunsSrc streams fused MULU runs and immediate shifts while each
// MC changes its group's mask from its own memory (so the four groups
// run different PE subsets, one of them none at all).
const maskedRunsSrc = `
	bcast   init
	move.w  $40, d1
	setmask d1
	moveq   #2, d0
l1:	bcast   muls
	dbra    d0, l1
	setmask #0
	bcast   muls
	move.w  $42, d1
	setmask d1
	bcast   muls
	setmask #15
	bcast   store
	halt
	.block  init
	move.w  $200, d2
	move.w  $202, d3
	moveq   #1, d4
	.endblock
	.block  muls
	mulu.w  d2, d3
	mulu.w  d2, d3
	mulu.w  d2, d3
	mulu.w  d2, d3
	lsl.w   #3, d4
	lsr.l   #1, d4
	addq.w  #1, d4
	mulu.w  d2, d4
	.endblock
	.block  store
	move.l  d3, $100
	move.l  d4, $104
	.endblock
`

// runMaskedRuns runs maskedRunsSrc on 16 PEs (4 MC groups) with a
// 4-word Fetch Unit queue on the reference tier (refTier) or the super
// tier, with rec attached (nil: detached), and returns the result and
// every PE's stored registers.
func runMaskedRuns(t *testing.T, refTier bool, rec *obs.Recorder) (RunResult, []uint32) {
	t.Helper()
	vm := newTestVM(t, 16, func(c *Config) {
		c.QueueDepthWords = 4
		c.DisableExecTable = refTier
		c.Obs = rec
	})
	masks := [][]uint16{{0x5, 0xA}, {0xE, 0x1}, {0x0, 0xF}, {0xF, 0x6}}
	for g, mc := range vm.MCs {
		if err := mc.Mem.WriteWords(0x40, masks[g]); err != nil {
			t.Fatal(err)
		}
	}
	for i, pe := range vm.PEs {
		mul := uint16(0x1111*(i%5)) ^ uint16(i*0x0301) | 1
		if err := pe.Mem.WriteWords(0x200, []uint16{mul, uint16(3 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := vm.RunSIMD(m68k.MustAssemble(maskedRunsSrc))
	if err != nil {
		t.Fatal(err)
	}
	var regs []uint32
	for _, pe := range vm.PEs {
		for _, addr := range []uint32{0x100, 0x104} {
			v, err := pe.Mem.Read(addr, m68k.Long)
			if err != nil {
				t.Fatal(err)
			}
			regs = append(regs, v)
		}
	}
	return res, regs
}

// TestSIMDMaskedRunsTierEquivalence: per-group masks that change
// mid-program, fused MULU runs and a queue that fills must give the
// same run result (regions, queue stalls and occupancy, starve
// cycles), the same PE state and, with a recorder attached, the same
// event stream and metrics on the reference and super tiers.
// Detached, the super tier takes its fused-run replay over the masked
// groups.
func TestSIMDMaskedRunsTierEquivalence(t *testing.T) {
	for _, observed := range []bool{false, true} {
		newRec := func() *obs.Recorder {
			if !observed {
				return nil
			}
			return obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
		}
		refRec := newRec()
		refRes, refRegs := runMaskedRuns(t, true, refRec)
		if refRes.QueueStallCycles == 0 {
			t.Fatal("queue never filled")
		}
		if observed && !hasKind(refRec.Merged(), obs.KindLockstepWait) {
			t.Fatal("no lockstep wait events recorded")
		}
		label := fmt.Sprintf("super/observed=%v", observed)
		rec := newRec()
		res, regs := runMaskedRuns(t, false, rec)
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("%s: run results differ:\nreference: %+v\ngot:       %+v", label, refRes, res)
		}
		if !reflect.DeepEqual(regs, refRegs) {
			t.Errorf("%s: PE registers differ:\nreference: %x\ngot:       %x", label, refRegs, regs)
		}
		if observed {
			if re, ge := refRec.Merged(), rec.Merged(); !reflect.DeepEqual(re, ge) {
				t.Errorf("%s: event streams differ (%d vs %d events)", label, len(re), len(ge))
			}
			if rm, gm := refRec.Metrics().Flatten(""), rec.Metrics().Flatten(""); !reflect.DeepEqual(rm, gm) {
				t.Errorf("%s: metrics differ", label)
			}
		}
	}
}

func hasKind(evs []obs.Event, k obs.Kind) bool {
	for _, ev := range evs {
		if ev.Kind == k {
			return true
		}
	}
	return false
}
