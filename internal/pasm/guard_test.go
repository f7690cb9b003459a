package pasm_test

import (
	"strings"
	"testing"

	"repro/internal/m68k"
	"repro/internal/matmul"
	"repro/internal/pasm"
)

// TestMaxStepsBoundsInstructionsPerCPU: MaxSteps bounds each CPU's
// executed instructions, not the engine's segment runs. A MIMD run
// given its own total instruction count as the bound (at least every
// PE's count) must complete with the same result.
func TestMaxStepsBoundsInstructionsPerCPU(t *testing.T) {
	spec := matmul.Spec{N: 16, P: 4, Muls: 1, Mode: matmul.MIMD}
	a, b := matmul.Identity(spec.N), matmul.Random(spec.N, 1988)
	want, _, err := matmul.Execute(pasm.DefaultConfig(), spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pasm.DefaultConfig()
	cfg.MaxSteps = want.Instrs
	got, c, err := matmul.Execute(cfg, spec, a, b)
	if err != nil {
		t.Fatalf("MaxSteps = Instrs = %d: %v", want.Instrs, err)
	}
	if got.Cycles != want.Cycles || got.Instrs != want.Instrs {
		t.Errorf("bounded run: cycles %d instrs %d, want %d and %d", got.Cycles, got.Instrs, want.Cycles, want.Instrs)
	}
	if !matmul.Equal(c, matmul.Reference(a, b)) {
		t.Error("bounded run computed a wrong product")
	}
}

// TestMaxStepsStopsRunawayPE: a PE spinning on a branch to itself
// never reaches a device operation; the guard must end the run.
func TestMaxStepsStopsRunawayPE(t *testing.T) {
	cfg := pasm.DefaultConfig()
	cfg.PEMemBytes = 1 << 16
	cfg.MaxSteps = 1000
	vm, err := pasm.NewVM(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = vm.RunMIMD(m68k.MustAssemble("spin:\tbra\tspin\n"))
	if err == nil || !strings.Contains(err.Error(), "exceeded 1000 steps") {
		t.Errorf("err = %v, want the MaxSteps runaway error", err)
	}
}
