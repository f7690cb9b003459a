package matmul

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pasm"
)

const engineGoldenFile = "testdata/engine_golden.txt"

var updateGolden = flag.Bool("update", false, "rewrite the engine golden digests")

type engineCell struct {
	spec Spec
	seed uint32
}

// engineCells is the asynchronous-engine golden grid: every MIMD,
// S/MIMD and Mixed cell with p in {1, 4, 16} and n in {8, 16, 32}
// (n >= p), three seeds each. The seed also picks the muls chain
// length, so chains of 1, 3 and 8 extra multiplies all appear.
func engineCells() []engineCell {
	var cells []engineCell
	for _, mode := range []Mode{MIMD, SMIMD, Mixed} {
		for _, p := range []int{1, 4, 16} {
			for _, n := range []int{8, 16, 32} {
				if n < p {
					continue
				}
				for s, muls := range []int{2, 4, 9} {
					cells = append(cells, engineCell{Spec{N: n, P: p, Muls: muls, Mode: mode}, uint32(1988 + 7*s)})
				}
			}
		}
	}
	return cells
}

// engineDigest runs one cell twice on the default (fastest) interpreter
// tier — detached, then with a full recorder — and hashes what the
// asynchronous engine decides: the run result (every PE clock
// included), the product, and the event stream. The two runs must agree on the result, since the
// detached run takes fused fast paths a recorder turns off.
func engineDigest(t *testing.T, spec Spec, seed uint32) string {
	t.Helper()
	a := Random(spec.N, seed)
	b := Random(spec.N, seed^0x5A5A)
	plain, c := executeCfg(t, spec, a, b, tierSuper, nil)
	rec := obs.New(obs.Config{Events: obs.AllKinds})
	res, c2 := executeCfg(t, spec, a, b, tierSuper, func(cfg *pasm.Config) { cfg.Obs = rec })
	if !reflect.DeepEqual(plain, res) {
		t.Errorf("%v n=%d p=%d: detached and recorded runs differ:\n%+v\n%+v", spec.Mode, spec.N, spec.P, plain, res)
	}
	if !Equal(c, Reference(a, b)) || !Equal(c, c2) {
		t.Errorf("%v n=%d p=%d: wrong product", spec.Mode, spec.N, spec.P)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%v\n", res, c)
	// The merged stream is a sort of the per-unit streams, so hashing
	// those in unit order pins it without paying for the sort.
	var buf []byte
	for _, u := range rec.Units() {
		fmt.Fprintf(h, "%s\n", u.Name)
		for _, ev := range u.Events() {
			buf = append(buf, byte(ev.Kind))
			for _, v := range [...]int64{int64(ev.Unit), int64(ev.PC), ev.Seq, ev.Clock, ev.Dur, ev.Arg} {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			if len(buf) >= 1<<16 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestEngineGolden pins the asynchronous engine's decisions (device-op
// order, wait charges, wakeups) over a grid of MIMD, S/MIMD and Mixed
// cells to digests recorded from the original all-PE-scan engine.
// Every interpreter tier runs the same engine, so the tier
// differentials cannot catch an engine bug; this test can. Run with
// -update to rewrite the digests after an intentional timing change.
func TestEngineGolden(t *testing.T) {
	var got []string
	for _, cell := range engineCells() {
		s := cell.spec
		got = append(got, fmt.Sprintf("%v n=%d p=%d muls=%d seed=%d %s",
			s.Mode, s.N, s.P, s.Muls, cell.seed, engineDigest(t, s, cell.seed)))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(engineGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(engineGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d cells, grid has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
