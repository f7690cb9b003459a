package matmul

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/m68k"
	"repro/internal/obs"
	"repro/internal/pasm"
)

// TestDisasmResolvesEveryInstr: for a recording of every mode (two MC
// groups in the SIMD modes), pasm.Disasm names each KindInstr event of
// an MC or MIMD-engine PE by the instruction at its PC — the one the
// event executed — and leaves lockstep PEs, whose trace PCs count
// broadcast instructions, to the mnemonic; the Chrome exporter then
// renders the whole recording and the result validates.
func TestDisasmResolvesEveryInstr(t *testing.T) {
	for _, mode := range []Mode{SIMD, Mixed, MIMD, SMIMD} {
		spec := Spec{N: 8, P: 8, Muls: 3, Mode: mode}
		rec := obs.New(obs.Config{Events: obs.AllKinds})
		executeCfg(t, spec, Identity(spec.N), Random(spec.N, 7), tierSuper, func(cfg *pasm.Config) { cfg.Obs = rec })
		prog, _, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		simd := mode == SIMD || mode == Mixed
		disasm := pasm.Disasm(prog, simd)
		units := rec.Units()
		named := 0
		for _, u := range units {
			pe := strings.HasPrefix(u.Name, "PE")
			for _, ev := range u.Events() {
				if ev.Kind != obs.KindInstr {
					continue
				}
				text := disasm(u.Name, int(ev.PC))
				if pe && simd {
					if text != "" {
						t.Fatalf("%v %s pc=%d: lockstep PE named %q", mode, u.Name, ev.PC, text)
					}
					continue
				}
				if text == "" || prog.Instrs[ev.PC].Op != m68k.Op(ev.Arg) {
					t.Fatalf("%v %s pc=%d: named %q for a %v", mode, u.Name, ev.PC, text, m68k.Op(ev.Arg))
				}
				named++
			}
		}
		if named == 0 {
			t.Fatalf("%v: no instruction resolved", mode)
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, rec, disasm); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}
