// Package report generates the reproduction report: it runs every
// experiment, evaluates the paper's qualitative claims against the
// measurements (the same shape assertions the test suite enforces),
// and writes a self-contained markdown document with the tables, ASCII
// figure shapes, and a PASS/FAIL checklist — one command to audit the
// whole reproduction (cmd/pasmreport).
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/matmul"
)

// Claim is one checked statement from the paper.
type Claim struct {
	ID          string
	Description string
	Pass        bool
	Detail      string
}

// Generate runs all experiments with the given options, writes the
// markdown report to w, and returns the evaluated claims.
func Generate(opts experiments.Options, w io.Writer) ([]Claim, error) {
	var claims []Claim
	add := func(id, desc string, pass bool, detail string, args ...any) {
		claims = append(claims, Claim{
			ID: id, Description: desc, Pass: pass,
			Detail: fmt.Sprintf(detail, args...),
		})
	}

	fmt.Fprintf(w, "# PASM reproduction report\n\ngenerated %s; ",
		time.Now().UTC().Format("2006-01-02 15:04 UTC"))
	if opts.Full {
		fmt.Fprint(w, "full problem sizes (paper's n up to 256)\n\n")
	} else {
		fmt.Fprint(w, "quick problem sizes (n up to 64)\n\n")
	}

	section := func(title, body string) {
		fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", title, body)
	}

	// Table 1.
	t1, err := experiments.Table1(opts)
	if err != nil {
		return claims, err
	}
	section("Table 1", t1.Render())
	mips := map[string]map[string]float64{}
	for _, row := range t1.Rows {
		if mips[row.Instruction] == nil {
			mips[row.Instruction] = map[string]float64{}
		}
		mips[row.Instruction][row.Mode] = row.MIPS
	}
	allFaster := true
	for _, m := range mips {
		if m["SIMD"] <= m["MIMD"] {
			allFaster = false
		}
	}
	add("T1", "SIMD raw MIPS exceeds MIMD for every instruction type", allFaster,
		"%d instruction types measured", len(mips))

	// Figure 6.
	f6, err := experiments.Fig6(opts)
	if err != nil {
		return claims, err
	}
	section("Figure 6", f6.Render()+"\n"+f6.Plot())
	first, last := f6.Rows[0], f6.Rows[len(f6.Rows)-1]
	parallelFaster, simdFastest := true, true
	for _, row := range f6.Rows {
		for _, mode := range []string{"SIMD", "MIMD", "S/MIMD"} {
			if row.Cycles[mode] >= row.Cycles["SISD"] {
				parallelFaster = false
			}
		}
		if row.Cycles["SIMD"] > row.Cycles["MIMD"] || row.Cycles["SIMD"] > row.Cycles["S/MIMD"] {
			simdFastest = false
		}
	}
	add("F6a", "every parallel version beats SISD at every n", parallelFaster, "n up to %d", last.N)
	add("F6b", "SIMD is the fastest mode at one multiply per inner loop", simdFastest, "")
	r0 := float64(first.Cycles["MIMD"]) / float64(first.Cycles["S/MIMD"])
	r1 := float64(last.Cycles["MIMD"]) / float64(last.Cycles["S/MIMD"])
	add("F6c", "T_MIMD/T_S-MIMD decreases as n grows (curves converge)", r1 <= r0,
		"%.4f at n=%d -> %.4f at n=%d", r0, first.N, r1, last.N)
	speedup := float64(last.Cycles["SISD"]) / float64(last.Cycles["S/MIMD"])
	add("F6d", "parallel improvement is about a factor of p", speedup > float64(f6.P)*0.6,
		"SISD/S-MIMD = %.2f at n=%d, p=%d", speedup, last.N, f6.P)

	// Figure 7.
	f7, err := experiments.Fig7(opts)
	if err != nil {
		return claims, err
	}
	section("Figure 7", f7.Render()+"\n"+f7.Plot())
	add("F7a", "SIMD wins at one multiply per inner loop", f7.Rows[0].Winner == "SIMD", "")
	lastRow := f7.Rows[len(f7.Rows)-1]
	add("F7b", "S/MIMD wins at thirty multiplies", lastRow.Winner == "S/MIMD", "")
	add("F7c", "crossover at approximately fourteen multiplies",
		f7.Crossover >= 11 && f7.Crossover <= 17, "measured %.1f", f7.Crossover)

	// Figures 8-10.
	for _, muls := range []int{1, 14, 30} {
		bd, err := experiments.Breakdown(opts, muls)
		if err != nil {
			return claims, err
		}
		name := map[int]string{1: "Figure 8", 14: "Figure 9", 30: "Figure 10"}[muls]
		section(name, bd.Render())
		rising := true
		byMode := map[string][]experiments.BreakdownRow{}
		for _, row := range bd.Rows {
			byMode[row.Mode] = append(byMode[row.Mode], row)
		}
		for _, rows := range byMode {
			f := float64(rows[0].Mult) / float64(rows[0].Total)
			l := float64(rows[len(rows)-1].Mult) / float64(rows[len(rows)-1].Total)
			if l <= f {
				rising = false
			}
		}
		add(fmt.Sprintf("F%d", map[int]int{1: 8, 14: 9, 30: 10}[muls]+0),
			fmt.Sprintf("%s: multiplication share grows with n (O(n^3/p) vs O(n^2) comm)", name),
			rising, "")
		switch muls {
		case 14:
			// Totals nearly equal at n=64.
			var s, h int64
			for _, row := range bd.Rows {
				if row.N == 64 {
					if row.Mode == "SIMD" {
						s = row.Total
					} else {
						h = row.Total
					}
				}
			}
			if s > 0 && h > 0 {
				diff := math.Abs(float64(s-h)) / float64(s)
				add("F9b", "at fourteen multiplies the SIMD and S/MIMD totals are equal at n=64",
					diff < 0.01, "relative difference %.3f%%", 100*diff)
			}
		case 30:
			nmax := bd.Rows[len(bd.Rows)-1].N
			var s, h int64
			for _, row := range bd.Rows {
				if row.N == nmax {
					if row.Mode == "SIMD" {
						s = row.Total
					} else {
						h = row.Total
					}
				}
			}
			add("F10b", "at thirty multiplies S/MIMD beats SIMD at the largest n",
				h < s, "%d vs %d cycles at n=%d", h, s, nmax)
		}
	}

	// Figure 11.
	f11, err := experiments.Fig11(opts)
	if err != nil {
		return claims, err
	}
	section("Figure 11", f11.Render()+"\n"+f11.Plot())
	lastE := f11.Rows[len(f11.Rows)-1]
	add("F11a", "SIMD efficiency exceeds unity (superlinear speed-up)",
		lastE.Efficiency["SIMD"] > 1, "%.3f at n=%d", lastE.Efficiency["SIMD"], lastE.X)
	add("F11b", "S/MIMD efficiency exceeds MIMD's and neither reaches 1",
		lastE.Efficiency["S/MIMD"] > lastE.Efficiency["MIMD"] &&
			lastE.Efficiency["S/MIMD"] < 1,
		"S/MIMD %.3f, MIMD %.3f", lastE.Efficiency["S/MIMD"], lastE.Efficiency["MIMD"])
	rising := true
	for i := 1; i < len(f11.Rows); i++ {
		for _, mode := range []string{"MIMD", "S/MIMD"} {
			if f11.Rows[i].Efficiency[mode] <= f11.Rows[i-1].Efficiency[mode] {
				rising = false
			}
		}
	}
	add("F11c", "MIMD-family efficiency rises with problem size", rising, "")

	// Figure 12.
	f12, err := experiments.Fig12(opts)
	if err != nil {
		return claims, err
	}
	section("Figure 12", f12.Render()+"\n"+f12.Plot())
	falling := true
	for i := 1; i < len(f12.Rows); i++ {
		for _, mode := range []string{"SIMD", "MIMD", "S/MIMD"} {
			if f12.Rows[i].Efficiency[mode] >= f12.Rows[i-1].Efficiency[mode] {
				falling = false
			}
		}
	}
	add("F12", "efficiency drops as the number of processors grows", falling, "")

	// Model cross-validation.
	mv, err := experiments.ModelValidation(opts)
	if err != nil {
		return claims, err
	}
	section("Analytic model vs simulator", mv.Render())
	ok := true
	worst := 0.0
	for _, row := range mv.Rows {
		limit := 0.02
		if strings.Contains(row.Name, "gain") {
			limit = 0.15
		}
		if row.RelErr > limit {
			ok = false
		}
		worst = math.Max(worst, row.RelErr)
	}
	add("M1", "closed-form timing model matches the simulator", ok,
		"worst relative error %.1f%%", 100*worst)

	// Extensions beyond the paper.
	cx, err := experiments.CrossoverVsP(opts)
	if err != nil {
		return claims, err
	}
	section("Extension: crossover vs PE count", cx.Render())
	byP := map[int]experiments.CrossoverVsPRow{}
	for _, row := range cx.Rows {
		byP[row.P] = row
	}
	// p=16 passes with a later crossover, or with none at all: SIMD
	// ahead at every multiplies count up to the generator's limit.
	p16 := byP[16]
	p16Later := p16.Measured > byP[8].Measured || (p16.SIMDAhead && p16.MaxMuls == matmul.MaxMuls)
	add("X1", "crossover moves later with p (group-local lockstep vs partition-wide barriers)",
		byP[8].Measured > byP[4].Measured && p16Later,
		"p=4: %.1f, p=8: %.1f, p=16: %.1f swept to %d (model %.1f/%.1f/%.1f)",
		byP[4].Measured, byP[8].Measured, p16.Measured, p16.MaxMuls,
		byP[4].Predicted, byP[8].Predicted, p16.Predicted)

	mx, err := experiments.MixedMode(opts)
	if err != nil {
		return claims, err
	}
	section("Extension: fine-grained mixed-mode decoupling", mx.Render())
	mixedNever := true
	for _, row := range mx.Rows {
		if row.Mixed <= row.SIMD {
			mixedNever = false
		}
	}
	lastMx := mx.Rows[len(mx.Rows)-1]
	add("X2", "per-element mixed-mode bursts never beat SIMD (correlated variation), while S/MIMD does",
		mixedNever && lastMx.SMIMD < lastMx.SIMD,
		"Mixed/SIMD %.4f at %d multiplies", float64(lastMx.Mixed)/float64(lastMx.SIMD), lastMx.Muls)

	wl, err := experiments.Workloads(opts)
	if err != nil {
		return claims, err
	}
	section("Extension: additional workload domains", wl.Render())
	wlOK := true
	byKey := map[string]experiments.WorkloadRow{}
	for _, row := range wl.Rows {
		byKey[row.Workload+"/"+row.Mode] = row
	}
	for _, name := range []string{"smoothing 32x32", "reduce n=4096"} {
		if byKey[name+"/SIMD"].Cycles >= byKey[name+"/SISD"].Cycles ||
			byKey[name+"/SIMD"].Cycles >= byKey[name+"/MIMD"].Cycles {
			wlOK = false
		}
	}
	add("X3", "the mode ordering holds across image smoothing and all-reduce (outputs host-verified)", wlOK, "")

	ft, err := experiments.FaultTolerance(opts)
	if err != nil {
		return claims, err
	}
	section("Extension: Extra-Stage Cube fault tolerance", ft.Render())
	ftOK := true
	for _, row := range ft.Rows {
		if !row.OK {
			ftOK = false
		}
	}
	add("X4", "partition isolation under faults; every single connection reroutes; saturating permutations need two passes", ftOK, "")

	// Checklist.
	fmt.Fprint(w, "## Claim checklist\n\n")
	fmt.Fprint(w, "| claim | result | description | detail |\n|---|---|---|---|\n")
	for _, c := range claims {
		mark := "PASS"
		if !c.Pass {
			mark = "**FAIL**"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", c.ID, mark, c.Description, c.Detail)
	}
	fmt.Fprintln(w)
	return claims, nil
}

// AllPass reports whether every claim passed.
func AllPass(claims []Claim) bool {
	for _, c := range claims {
		if !c.Pass {
			return false
		}
	}
	return true
}
