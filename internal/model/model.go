// Package model implements the paper's analytic timing equations and
// closed-form predictions, used to cross-validate the simulator:
//
// Section 5.2 defines, for K PEs each executing J instructions with
// instruction j on PE k taking time T[j][k]:
//
//	T_SIMD = sum over j of max over k of T[j][k]   (lockstep: every
//	         instruction costs the worst case)
//	T_MIMD = max over k of sum over j of T[j][k]   (asynchronous: the
//	         maximum is taken once, over whole streams)
//
// and in general T_MIMD <= T_SIMD.
//
// The data-dependent MULU time 38 + 2*ones(multiplier) with uniform
// 16-bit multipliers makes ones ~ Binomial(16, 1/2), from which the
// expected per-multiply decoupling gain 2*(E[max_p ones] - 8) and the
// Figure 7 crossover location follow.
package model

import (
	"math"
	"math/bits"
)

// TSimd evaluates the paper's SIMD time equation for an instruction
// time matrix t[j][k] (instruction j, PE k).
func TSimd(t [][]int64) int64 {
	var total int64
	for _, row := range t {
		var m int64
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		total += m
	}
	return total
}

// TMimd evaluates the paper's MIMD time equation for t[j][k].
func TMimd(t [][]int64) int64 {
	if len(t) == 0 {
		return 0
	}
	var m int64
	for k := range t[0] {
		var sum int64
		for j := range t {
			sum += t[j][k]
		}
		if sum > m {
			m = sum
		}
	}
	return m
}

// onesPMF returns the Binomial(16, 1/2) probability mass function of
// the number of 1 bits in a uniform 16-bit value.
func onesPMF() [17]float64 {
	var pmf [17]float64
	// C(16,k) / 2^16
	c := 1.0
	for k := 0; k <= 16; k++ {
		pmf[k] = c / 65536.0
		c = c * float64(16-k) / float64(k+1)
	}
	return pmf
}

// MeanOnes is E[ones] for a uniform 16-bit multiplier: exactly 8.
func MeanOnes() float64 { return 8 }

// MeanMaxOnes returns E[max of p independent ones-counts], the
// expected worst case the SIMD lockstep charges per multiply across p
// PEs.
func MeanMaxOnes(p int) float64 {
	if p < 1 {
		return math.NaN()
	}
	pmf := onesPMF()
	// CDF
	var cdf [17]float64
	acc := 0.0
	for k := 0; k <= 16; k++ {
		acc += pmf[k]
		cdf[k] = acc
	}
	e := 0.0
	prev := 0.0
	for k := 0; k <= 16; k++ {
		fk := math.Pow(cdf[k], float64(p))
		e += float64(k) * (fk - prev)
		prev = fk
	}
	return e
}

// SdMaxOnes returns the standard deviation of the maximum of p
// independent ones-counts — the residual per-instruction variability
// a lockstep group of p PEs still exhibits, which couples MC groups
// through the network in multi-group SIMD partitions.
func SdMaxOnes(p int) float64 {
	if p < 1 {
		return math.NaN()
	}
	pmf := onesPMF()
	var cdf [17]float64
	acc := 0.0
	for k := 0; k <= 16; k++ {
		acc += pmf[k]
		cdf[k] = acc
	}
	mean, m2 := 0.0, 0.0
	prev := 0.0
	for k := 0; k <= 16; k++ {
		fk := math.Pow(cdf[k], float64(p))
		pk := fk - prev
		mean += float64(k) * pk
		m2 += float64(k) * float64(k) * pk
		prev = fk
	}
	return math.Sqrt(m2 - mean*mean)
}

// MuluMeanCycles is the expected MULU time for uniform multipliers:
// 38 + 2*E[ones] = 54.
func MuluMeanCycles() float64 { return 38 + 2*MeanOnes() }

// MuluMaxMeanCycles is the expected lockstep (per-instruction maximum
// over p PEs) MULU time.
func MuluMaxMeanCycles(p int) float64 { return 38 + 2*MeanMaxOnes(p) }

// DecouplingGainPerMul is the expected cycles an asynchronously
// executed multiply saves over its lockstep execution: the difference
// between the per-instruction maximum and the PE's own expected time.
func DecouplingGainPerMul(p int) float64 {
	return MuluMaxMeanCycles(p) - MuluMeanCycles()
}

// MeanMaxNormal returns E[max of p independent standard normal
// variables], computed by numeric integration of
// integral of x * p * phi(x) * Phi(x)^(p-1) dx. It appears in the
// barrier-granularity term below: per-synchronization-interval sums of
// many instruction times are approximately normal, and the critical
// path charges their maximum over the p PEs once per interval.
//
// Every power of two up to 1024 — each PE count and MC group count a
// machine can have — is read from meanMaxNormalPow2, which holds the
// integral's exact results, so the service's cost prediction does not
// pay an 8,000-step integral per call; any other p integrates.
func MeanMaxNormal(p int) float64 {
	if p < 1 {
		return math.NaN()
	}
	if p == 1 {
		return 0
	}
	if k := bits.TrailingZeros(uint(p)); p&(p-1) == 0 && k <= len(meanMaxNormalPow2) {
		return meanMaxNormalPow2[k-1]
	}
	return meanMaxNormalIntegral(p)
}

// meanMaxNormalPow2[k-1] is meanMaxNormalIntegral(1<<k), printed in
// the shortest form that parses back to the same float64 (the model
// tests compare every entry with the integral bit for bit).
var meanMaxNormalPow2 = [...]float64{
	0.5641895835477448, // 2
	1.029375373003945,  // 4
	1.4236003060452347, // 8
	1.765991393054703,  // 16
	2.06966882792874,   // 32
	2.3437334650791217, // 64
	2.5945973685988153, // 128
	2.826863278937942,  // 256
	3.0439031612018113, // 512
	3.2482396013702153, // 1024
}

// meanMaxNormalIntegral is MeanMaxNormal's trapezoidal integral over
// [-8, 8] in 8,000 steps, for p >= 2.
func meanMaxNormalIntegral(p int) float64 {
	const (
		lo, hi = -8.0, 8.0
		steps  = 8000
	)
	h := (hi - lo) / steps
	sum := 0.0
	for i := 0; i <= steps; i++ {
		x := lo + float64(i)*h
		phi := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
		Phi := 0.5 * (1 + math.Erf(x/math.Sqrt2))
		f := x * float64(p) * phi * math.Pow(Phi, float64(p-1))
		w := 1.0
		if i == 0 || i == steps {
			w = 0.5
		}
		sum += w * f
	}
	return sum * h
}

// Machine captures the timing parameters the crossover prediction
// needs (a subset of pasm.Config, kept dependency-free).
type Machine struct {
	DRAMWaitStates float64 // extra cycles per DRAM access
	RefreshPeriod  float64 // cycles between charged refresh stalls (0 = off)
	RefreshStall   float64 // cycles per stall
	BarrierExtra   float64 // mode-switch cycles per barrier read
	PEsPerMC       int     // SIMD lockstep group size (prototype: 4)
}

// groupSize returns the lockstep group size (SIMD instruction release
// is per MC group, not per partition).
func (m Machine) groupSize(p int) int {
	g := m.PEsPerMC
	if g <= 0 {
		g = 4
	}
	if p < g {
		return p
	}
	return g
}

// refreshFraction is the average slowdown DRAM refresh adds to
// continuously busy execution.
func (m Machine) refreshFraction() float64 {
	if m.RefreshPeriod <= 0 {
		return 0
	}
	return m.RefreshStall / (m.RefreshPeriod + m.RefreshStall)
}

// SyncExcessPerMul is the cycles per multiply the S/MIMD critical path
// still pays to worst-case charging at its own synchronization
// granularity. The PEs re-synchronize at every column rotation (each j
// step); within one j step each of the cols = n/p inner loops reuses
// one random multiplier for n*M multiplies, so the per-j compute time
// of PE k is a sum of cols scaled draws with standard deviation
// 2*sd(ones)*n*M*sqrt(cols) = 4nM*sqrt(cols), and the critical path
// charges E[max over p] of it once per j step:
//
//	excess/multiply = 4 * E[maxNormal(p)] / sqrt(cols)
//
// This term — invisible in the paper's own analysis — is why decoupled
// execution does not recover the full E[max]-E[own] gain: S/MIMD only
// coarsens the granularity of the maximum from one instruction to one
// synchronization interval.
func SyncExcessPerMul(p, cols int) float64 {
	if p <= 1 || cols < 1 {
		return 0
	}
	return 4 * MeanMaxNormal(p) / math.Sqrt(float64(cols))
}

// CrossGroupExcessPerMul is the cycles per multiply a multi-group SIMD
// partition pays on top of its within-group per-instruction maxima:
// the groups run the same stream but drift with the residual
// variability of their group maxima, and the network transfers at each
// rotation charge the cross-group maximum once per j step. The same
// algebra as SyncExcessPerMul applies with the per-draw deviation
// 2*sd(max-of-group ones) and the group count as the max arity.
func (m Machine) CrossGroupExcessPerMul(p, cols int) float64 {
	g := m.groupSize(p)
	groups := p / g
	if groups <= 1 || cols < 1 {
		return 0
	}
	return 2 * SdMaxOnes(g) * MeanMaxNormal(groups) / math.Sqrt(float64(cols))
}

// NetGainPerMul is the expected net cycles per added multiply by which
// the decoupled (S/MIMD) program closes on SIMD. SIMD's per-multiply
// cost is the within-GROUP maximum (instruction release is per MC
// group of PEsPerMC PEs) plus the cross-group residual; S/MIMD's is
// the PE's own expected time plus its DRAM fetch wait, refresh share,
// and the residual worst-case charging at barrier granularity across
// the whole partition.
func (m Machine) NetGainPerMul(p, cols int) float64 {
	return m.SIMDPerMul(p, cols) - m.SMIMDPerMul(p, cols)
}

// SIMDPerMul is the expected SIMD cycles per inner-loop multiply.
func (m Machine) SIMDPerMul(p, cols int) float64 {
	return MuluMaxMeanCycles(m.groupSize(p)) + m.CrossGroupExcessPerMul(p, cols)
}

// SMIMDPerMul is the expected S/MIMD cycles per inner-loop multiply.
func (m Machine) SMIMDPerMul(p, cols int) float64 {
	mimdPerMul := MuluMeanCycles() + m.DRAMWaitStates // 1-word fetch
	return mimdPerMul + m.refreshFraction()*mimdPerMul + SyncExcessPerMul(p, cols)
}

// CommDeltaPerTransfer is the extra communication cost S/MIMD pays per
// transferred element over SIMD: four barrier reads (a word move from
// the absolute SIMD-space address, 16 cycles, plus its instruction
// fetch waits and the mode-switch overhead), where SIMD's lockstep
// gives the same ordering for free.
func (m Machine) CommDeltaPerTransfer() float64 {
	const barrierReadCycles = 16 // move.w abs.l, dn
	const barrierReadWords = 3
	return 4 * (barrierReadCycles + m.DRAMWaitStates*barrierReadWords + m.BarrierExtra)
}

// SIMDAdvantagePerElement is SIMD's fixed per-inner-loop-element
// advantage over S/MIMD at one multiply per loop: the loop-control
// instruction hidden on the MC (a taken DBRA plus its fetch), the
// fetch wait states and refresh share of the loop body the queue does
// not pay, and the communication-protocol difference amortized over
// the p/n element-loop iterations per transferred element. bodyWords
// is the instruction words of the per-element body (3 for the plain
// kernel), bodyCycles its approximate execution time.
func (m Machine) SIMDAdvantagePerElement(bodyWords, bodyCycles float64, n, p int) float64 {
	const dbraTaken = 10
	const dbraWords = 2
	hiddenControl := dbraTaken + m.DRAMWaitStates*dbraWords
	fetchWaits := m.DRAMWaitStates * bodyWords
	refresh := m.refreshFraction() * (bodyCycles + hiddenControl)
	comm := 0.0
	if p > 1 && n > 0 {
		comm = m.CommDeltaPerTransfer() * float64(p) / float64(n)
	}
	return hiddenControl + fetchWaits + refresh + comm
}

// PredictCrossover returns the predicted Figure 7 crossover: the
// inner-loop multiply count at which T_SIMD = T_S/MIMD for the n x n
// matrix multiplication on p PEs. The plain kernel's body is
// 3 instructions/3 words costing about 74 cycles plus the multiply
// variation.
func (m Machine) PredictCrossover(n, p int) float64 {
	cols := 1
	if p > 0 {
		cols = n / p
	}
	g := m.NetGainPerMul(p, cols)
	if g <= 0 {
		return math.Inf(1) // decoupling never wins
	}
	return m.SIMDAdvantagePerElement(3, 74, n, p) / g
}

// Matmul operation counts (paper Section 4) -----------------------------

// Multiplies returns the multiply-accumulate count per PE: n^3/p.
func Multiplies(n, p int) int64 { return int64(n) * int64(n) * int64(n) / int64(p) }

// NetOps returns the network operations per PE: 2n^2 (two 8-bit
// transfers per 16-bit element, n elements per column, n rotations).
func NetOps(n int) int64 { return 2 * int64(n) * int64(n) }

// NetBytesTotal returns machine-wide delivered bytes: p * 2n^2.
func NetBytesTotal(n, p int) int64 {
	if p <= 1 {
		return 0
	}
	return int64(p) * NetOps(n)
}

// Barriers returns the S/MIMD barrier rounds: four per transferred
// element (before/after each byte's send), n^2 elements.
func Barriers(n, p int) int64 {
	if p <= 1 {
		return 0
	}
	return 4 * int64(n) * int64(n)
}
