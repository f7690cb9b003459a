package model

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/m68k"
	"repro/internal/prng"
)

func TestTSimdTMimdSmall(t *testing.T) {
	// Two PEs, two instructions: SIMD charges both maxima, MIMD the
	// larger column sum.
	times := [][]int64{
		{70, 38},
		{38, 70},
	}
	if got := TSimd(times); got != 140 {
		t.Errorf("TSimd = %d, want 140", got)
	}
	if got := TMimd(times); got != 108 {
		t.Errorf("TMimd = %d, want 108", got)
	}
}

// Property: the paper's inequality T_MIMD <= T_SIMD for any
// instruction time matrix.
func TestMimdNeverSlowerThanSimd(t *testing.T) {
	f := func(seed uint32, jRaw, kRaw uint8) bool {
		j := int(jRaw%20) + 1
		k := int(kRaw%8) + 1
		g := prng.New(seed)
		times := make([][]int64, j)
		for i := range times {
			times[i] = make([]int64, k)
			for c := range times[i] {
				times[i][c] = int64(g.Uint16()%100) + 1
			}
		}
		return TMimd(times) <= TSimd(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTSimdEqualWhenDeterministic(t *testing.T) {
	// With identical per-PE times the two equations coincide.
	times := [][]int64{{5, 5, 5}, {7, 7, 7}, {3, 3, 3}}
	if TSimd(times) != TMimd(times) {
		t.Errorf("deterministic times: TSimd %d != TMimd %d", TSimd(times), TMimd(times))
	}
}

func TestOnesPMFSums(t *testing.T) {
	pmf := onesPMF()
	sum := 0.0
	mean := 0.0
	for k, p := range pmf {
		sum += p
		mean += float64(k) * p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("pmf sums to %v", sum)
	}
	if math.Abs(mean-8) > 1e-12 {
		t.Errorf("pmf mean = %v, want 8", mean)
	}
	// C(16,8)/65536 is the mode.
	if math.Abs(pmf[8]-12870.0/65536.0) > 1e-12 {
		t.Errorf("pmf[8] = %v", pmf[8])
	}
}

func TestMeanMaxOnes(t *testing.T) {
	if got := MeanMaxOnes(1); math.Abs(got-8) > 1e-9 {
		t.Errorf("MeanMaxOnes(1) = %v, want 8", got)
	}
	// Monotone in p, bounded by 16.
	prev := 0.0
	for p := 1; p <= 32; p *= 2 {
		v := MeanMaxOnes(p)
		if v <= prev || v > 16 {
			t.Errorf("MeanMaxOnes(%d) = %v not in (prev, 16]", p, v)
		}
		prev = v
	}
	// Against a Monte Carlo estimate for p=4.
	g := prng.New(99)
	const trials = 200000
	total := 0.0
	for i := 0; i < trials; i++ {
		m := int64(0)
		for k := 0; k < 4; k++ {
			c := int64(0)
			for v := g.Uint16(); v != 0; v &= v - 1 {
				c++
			}
			if c > m {
				m = c
			}
		}
		total += float64(m)
	}
	mc := total / trials
	if math.Abs(MeanMaxOnes(4)-mc) > 0.03 {
		t.Errorf("MeanMaxOnes(4) = %v, Monte Carlo %v", MeanMaxOnes(4), mc)
	}
}

func TestMeanMaxOnesAgainstMuluCycles(t *testing.T) {
	// The analytic mean MULU time must match the timing table averaged
	// over all 65536 multipliers.
	var total int64
	for v := 0; v < 1<<16; v++ {
		total += m68k.MuluCycles(uint16(v))
	}
	exact := float64(total) / 65536
	if math.Abs(MuluMeanCycles()-exact) > 1e-9 {
		t.Errorf("MuluMeanCycles = %v, exhaustive %v", MuluMeanCycles(), exact)
	}
}

func TestDecouplingGainGrowsWithP(t *testing.T) {
	prev := 0.0
	for _, p := range []int{2, 4, 8, 16} {
		g := DecouplingGainPerMul(p)
		if g <= prev {
			t.Errorf("gain(%d) = %v not increasing", p, g)
		}
		prev = g
	}
	// p=4 is about 3.3 cycles (the calibration analysis in
	// EXPERIMENTS.md).
	if g := DecouplingGainPerMul(4); g < 2.5 || g > 4.5 {
		t.Errorf("gain(4) = %v, expected around 3.3", g)
	}
}

func TestMeanMaxNormal(t *testing.T) {
	// Known values: E[max of p standard normals].
	cases := map[int]float64{1: 0, 2: 0.5642, 4: 1.0294, 8: 1.4236}
	for p, want := range cases {
		if got := MeanMaxNormal(p); math.Abs(got-want) > 0.002 {
			t.Errorf("MeanMaxNormal(%d) = %v, want %v", p, got, want)
		}
	}
}

// TestMeanMaxNormalTable: every tabulated power of two returns exactly
// the integral's float64, and a p off the table (odd, non-power-of-two
// or past 1024) still integrates.
func TestMeanMaxNormalTable(t *testing.T) {
	for k := 1; k <= len(meanMaxNormalPow2); k++ {
		p := 1 << k
		if got, want := MeanMaxNormal(p), meanMaxNormalIntegral(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("MeanMaxNormal(%d) = %v, integral %v", p, got, want)
		}
	}
	for p, want := range map[int]float64{3: 0.8463, 6: 1.2672, 2048: 3.4417} {
		got := MeanMaxNormal(p)
		if got != meanMaxNormalIntegral(p) || math.Abs(got-want) > 0.002 {
			t.Errorf("MeanMaxNormal(%d) = %v, want the integral, about %v", p, got, want)
		}
	}
}

func TestSyncExcess(t *testing.T) {
	if SyncExcessPerMul(1, 16) != 0 {
		t.Error("no sync excess for one PE")
	}
	// 4 * 1.0294 / 4 = 1.03 for p=4, cols=16 (the n=64, p=4 case).
	if got := SyncExcessPerMul(4, 16); math.Abs(got-1.029) > 0.01 {
		t.Errorf("SyncExcessPerMul(4,16) = %v, want ~1.03", got)
	}
	// Coarser granularity (more cols) shrinks the residual.
	if SyncExcessPerMul(4, 64) >= SyncExcessPerMul(4, 16) {
		t.Error("sync excess should shrink with cols")
	}
}

func TestPredictCrossoverMatchesPrototypeConfig(t *testing.T) {
	// The prototype-like machine parameters must predict the Figure 7
	// crossover near the simulator's measured ~13.3 multiplies.
	m := Machine{DRAMWaitStates: 1, RefreshPeriod: 256, RefreshStall: 2, BarrierExtra: 4, PEsPerMC: 4}
	x := m.PredictCrossover(64, 4)
	if x < 10 || x > 17 {
		t.Errorf("predicted crossover %v, simulator measures ~13.3", x)
	}
}

func TestPredictCrossoverInfWithoutVariation(t *testing.T) {
	// One PE: no variation to exploit, decoupling never wins.
	m := Machine{DRAMWaitStates: 1}
	if !math.IsInf(m.PredictCrossover(64, 1), 1) {
		t.Error("crossover with p=1 should be +Inf")
	}
}

func TestCrossoverGrowsWithP(t *testing.T) {
	// SIMD lockstep release is per MC group of 4, so its per-multiply
	// worst case stops growing at p=4, while S/MIMD's partition-wide
	// barrier residual keeps growing as cols = n/p shrinks: at fixed
	// n the crossover moves later with p (the simulator measures
	// ~13.3 at p=4, ~20 at p=8, none by 32 multiplies at p=16).
	m := Machine{DRAMWaitStates: 1, RefreshPeriod: 256, RefreshStall: 2, BarrierExtra: 4, PEsPerMC: 4}
	x4 := m.PredictCrossover(64, 4)
	x8 := m.PredictCrossover(64, 8)
	x16 := m.PredictCrossover(64, 16)
	if !(x4 < x8 && x8 < x16) {
		t.Errorf("crossovers not increasing with p: %v, %v, %v", x4, x8, x16)
	}
	if x4 < 10 || x4 > 17 {
		t.Errorf("crossover(p=4) = %v, want ~13", x4)
	}
	if x8 < 16 || x8 > 26 {
		t.Errorf("crossover(p=8) = %v, want ~20", x8)
	}
}

func TestSdMaxOnes(t *testing.T) {
	// sd of a single draw is sqrt(16 * 1/4) = 2; taking maxima
	// narrows the distribution.
	if got := SdMaxOnes(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("SdMaxOnes(1) = %v, want 2", got)
	}
	if SdMaxOnes(4) >= SdMaxOnes(1) {
		t.Error("max of several draws should have smaller sd")
	}
}

func TestOperationCounts(t *testing.T) {
	if Multiplies(64, 4) != 65536 {
		t.Errorf("Multiplies(64,4) = %d", Multiplies(64, 4))
	}
	if NetOps(8) != 128 {
		t.Errorf("NetOps(8) = %d", NetOps(8))
	}
	if NetBytesTotal(8, 4) != 512 {
		t.Errorf("NetBytesTotal(8,4) = %d", NetBytesTotal(8, 4))
	}
	if NetBytesTotal(8, 1) != 0 {
		t.Error("single PE should move no bytes")
	}
	if Barriers(8, 4) != 256 {
		t.Errorf("Barriers(8,4) = %d", Barriers(8, 4))
	}
	if Barriers(8, 1) != 0 {
		t.Error("single PE needs no barriers")
	}
}
