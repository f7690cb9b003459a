package matmul

import (
	"runtime"
	"testing"

	"repro/internal/pasm"
)

// TestSIMDCellAllocationBound pins what one SIMD cell costs the host
// heap. Each of the 16 PEs models 1 MiB of main memory, but the
// program touches only a few KiB of it, and memories are backed on
// first touch; a regression to allocating the whole logical size per
// PE shows up here as 16+ MB. The gate counts bytes, not time, so it
// is immune to host speed and load.
func TestSIMDCellAllocationBound(t *testing.T) {
	const limit = 1 << 20
	spec := Spec{N: 32, P: 16, Muls: 30, Mode: SIMD}
	a, b := Random(32, 1), Random(32, 2)
	want := Reference(a, b)
	cell := func() {
		_, c, err := Execute(pasm.DefaultConfig(), spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(c, want) {
			t.Fatal("SIMD cell computed a wrong product")
		}
	}
	cell() // one-time initialization is not per-cell cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cell()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("one SIMD cell (n=32, p=16) allocated %d bytes, want < %d", got, limit)
	} else {
		t.Logf("one SIMD cell (n=32, p=16) allocated %d bytes", got)
	}
}
