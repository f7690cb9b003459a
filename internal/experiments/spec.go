package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/matmul"
	"repro/internal/partition"
)

// SpecVersion is the canonical-encoding version of Spec. Bump it when
// the encoding changes shape (it is embedded in the encoding itself, so
// old cache keys can never collide with new ones). v2 added the "pes"
// machine-size field.
const SpecVersion = 2

// CodeVersion names the simulator semantics that produced a result.
// It is folded into every cache key alongside the canonical spec
// encoding, so changing the simulated machine's behavior (cycle
// counts, program generation, report schema) must bump it — cached
// results from the old code then miss instead of serving stale bytes.
// v3: reports echo the machine size (schema pasmbench/v2.2).
// v4: the segment cache is gone, so interp.memo_misses reads 0.
// v5: ext-partition reports the first-fit schedule alone.
const CodeVersion = "pasm-sim/5"

// DefaultPEs is the machine size a spec that does not name one gets:
// the 16-PE prototype every paper experiment models.
const DefaultPEs = 16

// expAliases expands the user-facing experiment groups.
var (
	// ExpOrder is the paper's reproduction set, in report order.
	ExpOrder = []string{"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}
	// ExpExt is the beyond-the-paper extension set, in report order.
	ExpExt = []string{"ext-crossover", "ext-model", "ext-fault", "ext-workloads", "ext-mixed", "ext-partition"}
)

// CellSpec is one custom matrix-multiplication cell in a Spec: the
// machine-facing matmul.Spec with a stable string mode, so it has an
// obvious canonical JSON form.
type CellSpec struct {
	N    int    `json:"n"`
	P    int    `json:"p"`
	Muls int    `json:"muls"`
	Mode string `json:"mode"`
}

// ParseMode maps a CellSpec mode string onto the matmul program
// variant. Accepted names are the lowercase forms used by the CLIs:
// sisd (or serial), simd, mimd, smimd, mixed.
func ParseMode(s string) (matmul.Mode, error) {
	switch strings.ToLower(s) {
	case "sisd", "serial":
		return matmul.Serial, nil
	case "simd":
		return matmul.SIMD, nil
	case "mimd":
		return matmul.MIMD, nil
	case "smimd":
		return matmul.SMIMD, nil
	case "mixed":
		return matmul.Mixed, nil
	}
	return 0, fmt.Errorf("experiments: unknown mode %q (want sisd, simd, mimd, smimd, or mixed)", s)
}

// modeName is ParseMode's inverse: the canonical lowercase name.
func modeName(m matmul.Mode) string {
	switch m {
	case matmul.Serial:
		return "sisd"
	case matmul.SIMD:
		return "simd"
	case matmul.MIMD:
		return "mimd"
	case matmul.SMIMD:
		return "smimd"
	case matmul.Mixed:
		return "mixed"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// MatmulSpec converts the cell to the machine-facing spec.
func (c CellSpec) MatmulSpec() (matmul.Spec, error) {
	m, err := ParseMode(c.Mode)
	if err != nil {
		return matmul.Spec{}, err
	}
	s := matmul.Spec{N: c.N, P: c.P, Muls: c.Muls, Mode: m}
	if err := s.Validate(); err != nil {
		return matmul.Spec{}, err
	}
	return s, nil
}

// Spec is the complete, serializable description of one experiment
// request: which named sweeps and/or custom matmul cells to run, and
// the parameters that change the simulated results. Everything a spec
// does NOT carry (host parallelism, timing flags, output paths) is by
// construction unable to change the result bytes, which is what makes
// the canonical encoding a sound cache key.
//
// The same type backs the CLI flag parsing (cmd/pasmbench, cmd/pasmrun,
// cmd/pasmreport), the pasmd submission body, and the result cache key.
type Spec struct {
	// Exps names the sweeps to run, in report order. The aliases "all"
	// (the paper set) and "ext" (the extension set) expand in place.
	Exps []string `json:"exps,omitempty"`
	// Cells are custom matmul cells, reported as one "custom"
	// experiment after the named sweeps.
	Cells []CellSpec `json:"cells,omitempty"`
	// Full selects the paper's complete problem-size set.
	Full bool `json:"full"`
	// PEs is the simulated machine size (a power of two up to 1024;
	// 0 means the 16-PE prototype). Named sweeps need at least the
	// prototype's 16 PEs; custom cells need p <= pes. Larger machines
	// change ext-workloads and ext-partition and admit larger cells.
	PEs int `json:"pes,omitempty"`
	// Seed drives the random B matrices.
	Seed uint32 `json:"seed"`
	// Observe aggregates observability metrics into the summaries
	// ("obs/" keys).
	Observe bool `json:"observe"`
}

// Normalize expands aliases, lowercases cell modes, and validates
// every experiment name and cell. The returned spec is the canonical
// form: two requests meaning the same run normalize identically.
func (s Spec) Normalize() (Spec, error) {
	out := Spec{Full: s.Full, PEs: s.PEs, Seed: s.Seed, Observe: s.Observe}
	if out.PEs == 0 {
		out.PEs = DefaultPEs
	}
	if out.PEs < 1 || out.PEs > partition.MaxPEs || out.PEs&(out.PEs-1) != 0 {
		return Spec{}, fmt.Errorf("experiments: pes %d must be a power of two in 1..%d", out.PEs, partition.MaxPEs)
	}
	for _, name := range s.Exps {
		name = strings.ToLower(strings.TrimSpace(name))
		switch name {
		case "":
			continue
		case "all":
			out.Exps = append(out.Exps, ExpOrder...)
		case "ext":
			out.Exps = append(out.Exps, ExpExt...)
		default:
			if _, ok := runnersByName[name]; !ok {
				return Spec{}, fmt.Errorf("experiments: unknown experiment %q", name)
			}
			out.Exps = append(out.Exps, name)
		}
	}
	if len(out.Exps) > 0 && out.PEs < DefaultPEs {
		return Spec{}, fmt.Errorf("experiments: named sweeps need at least the %d-PE prototype, got pes=%d", DefaultPEs, out.PEs)
	}
	for _, c := range s.Cells {
		m, err := c.MatmulSpec()
		if err != nil {
			return Spec{}, err
		}
		if m.Mode == matmul.Serial {
			m.P = 1 // Serial ignores P; normalize so it can't split the key
		}
		if p := maxIntSpec(m.P, 1); p > out.PEs {
			return Spec{}, fmt.Errorf("experiments: cell p=%d exceeds the machine (pes=%d)", p, out.PEs)
		}
		out.Cells = append(out.Cells, CellSpec{N: m.N, P: m.P, Muls: m.Muls, Mode: modeName(m.Mode)})
	}
	if len(out.Exps) == 0 && len(out.Cells) == 0 {
		return Spec{}, fmt.Errorf("experiments: empty spec (no experiments and no cells)")
	}
	return out, nil
}

func maxIntSpec(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ParseExpList builds a Spec experiment list from a comma-separated
// -exp flag value (the pasmbench syntax).
func ParseExpList(flag string) []string {
	var exps []string
	for _, name := range strings.Split(flag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			exps = append(exps, name)
		}
	}
	return exps
}

// Canonical returns the spec's canonical encoding: normalized,
// versioned, sorted-key JSON with no insignificant whitespace. Two
// specs describing the same run encode byte-identically, so the
// encoding (plus CodeVersion) is the result-cache key. The golden test
// pins the exact bytes; changing them requires bumping SpecVersion.
func (s Spec) Canonical() ([]byte, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteByte('{')
	// Keys in sorted order: cells, exps, full, observe, pes, seed, v.
	first := true
	field := func(name string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:", name)
	}
	if len(n.Cells) > 0 {
		field("cells")
		b.WriteByte('[')
		for i, c := range n.Cells {
			if i > 0 {
				b.WriteByte(',')
			}
			// Cell keys sorted: mode, muls, n, p.
			fmt.Fprintf(&b, `{"mode":%q,"muls":%d,"n":%d,"p":%d}`, c.Mode, c.Muls, c.N, c.P)
		}
		b.WriteByte(']')
	}
	if len(n.Exps) > 0 {
		field("exps")
		b.WriteByte('[')
		for i, e := range n.Exps {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%q", e)
		}
		b.WriteByte(']')
	}
	field("full")
	fmt.Fprintf(&b, "%t", n.Full)
	field("observe")
	fmt.Fprintf(&b, "%t", n.Observe)
	field("pes")
	fmt.Fprintf(&b, "%d", n.PEs)
	field("seed")
	fmt.Fprintf(&b, "%d", n.Seed)
	field("v")
	fmt.Fprintf(&b, "%d", SpecVersion)
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// Key returns the spec's content address: SHA-256 over the canonical
// encoding and the code version. Identical specs served by identical
// code — and only those — share a key.
func (s Spec) Key() ([sha256.Size]byte, error) {
	c, err := s.Canonical()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	h := sha256.New()
	h.Write(c)
	h.Write([]byte{0})
	h.Write([]byte(CodeVersion))
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k, nil
}

// KeyString returns the hex form of Key (for logs and job listings).
func (s Spec) KeyString() (string, error) {
	k, err := s.Key()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(k[:]), nil
}

// ExpNames returns every runnable experiment name, sorted (for usage
// strings and validation messages).
func ExpNames() []string {
	names := make([]string, 0, len(runnersByName))
	for n := range runnersByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
