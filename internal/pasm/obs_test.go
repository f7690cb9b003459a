package pasm

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/m68k"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// obsTestSrc is a 2-PE S/MIMD-style exchange: a data-dependent MULU, a
// skewed spin loop, a Fetch-Unit barrier, then a polling-free ring
// send/recv — every event class the observability layer records.
const obsTestSrc = `
	movea.l	#$F10000, a0	; network transmit register
	movea.l	#$F00000, a1	; SIMD space: barrier on read
	move.w	$100, d1	; per-PE multiplier (sets MULU time)
	mulu.w	d1, d0
	move.w	$102, d0	; skew: per-PE busy-work count
spin:	dbra	d0, spin
	move.w	(a1), d7	; BARRIER: all PEs aligned
	move.b	d1, (a0)	; send multiplier's low byte
	move.w	(a1), d7	; BARRIER: all data in flight
	move.b	2(a0), d2	; receive
	move.w	d2, $104
	halt
`

// runObsProgram runs the exchange on 2 PEs with rec attached (rec may
// be nil for a detached run). PE0 multiplies by $0003 (two one-bits:
// 42 cycles) and spins briefly; PE1 multiplies by $FFFF (70 cycles)
// and spins ten times longer, so PE0 accumulates real barrier wait.
func runObsProgram(t *testing.T, rec *obs.Recorder, workers int) (RunResult, *m68k.Program) {
	t.Helper()
	vm := newTestVM(t, 2, func(c *Config) {
		c.Obs = rec
		c.HostWorkers = workers
	})
	prog := m68k.MustAssemble(obsTestSrc)
	data := [][]uint16{{0x0003, 40}, {0xFFFF, 400}}
	for i, pe := range vm.PEs {
		if err := pe.Mem.WriteWords(0x100, data[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := vm.RunMIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res, prog
}

// TestChromeTraceGolden pins the exporter's byte-exact output for the
// 2-PE exchange. Regenerate with: go test ./internal/pasm -run Golden -update
func TestChromeTraceGolden(t *testing.T) {
	rec := obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	_, prog := runObsProgram(t, rec, 1)

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec, Disasm(prog, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exporter emitted an invalid trace: %v", err)
	}

	golden := filepath.Join("testdata", "trace_smimd_2pe.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from %s (%d vs %d bytes); run with -update if the change is intended",
			golden, buf.Len(), len(want))
	}

	// Semantic pins behind the bytes: two barrier rounds over two PEs
	// give four barrier-wait slices, and PE0 (fast arrival) waits
	// longer than PE1 (slow arrival) in the first round.
	var waits []obs.Event
	for _, ev := range rec.Merged() {
		if ev.Kind == obs.KindBarrierRelease {
			waits = append(waits, ev)
		}
	}
	if len(waits) != 4 {
		t.Fatalf("barrier-wait slices = %d, want 4", len(waits))
	}
	var pe0, pe1 int64
	for _, ev := range waits[:2] { // first round: earliest two releases
		if ev.Unit == 0 {
			pe0 = ev.Dur
		} else {
			pe1 = ev.Dur
		}
	}
	if pe0 <= pe1 {
		t.Errorf("round 1 waits: PE0 %d <= PE1 %d; the fast PE should wait longer", pe0, pe1)
	}

	// The MULU histogram must see exactly the two data-dependent
	// timings: 38+2*ones(0x0003)=42 and 38+2*ones(0xFFFF)=70 execution
	// cycles, plus the partition memory's one DRAM wait state.
	h := rec.Metrics().Histogram("mulu_cycles")
	if h == nil || h.N != 2 || h.Min != 43 || h.Max != 71 {
		t.Fatalf("mulu_cycles histogram = %+v, want N=2 min=43 max=71", h)
	}
}

// TestObsAttachedMatchesDetached: attaching the recorder must not
// change any simulated result.
func TestObsAttachedMatchesDetached(t *testing.T) {
	rec := obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	attached, _ := runObsProgram(t, rec, 1)
	detached, _ := runObsProgram(t, nil, 1)
	if !reflect.DeepEqual(attached, detached) {
		t.Errorf("attached run %+v != detached run %+v", attached, detached)
	}
}

// TestObsDeterministicAcrossHostWorkers: the merged event stream and
// the aggregated metrics are identical whether the PEs are advanced by
// one host goroutine or several.
func TestObsDeterministicAcrossHostWorkers(t *testing.T) {
	rec1 := obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	res1, _ := runObsProgram(t, rec1, 1)
	rec4 := obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	res4, _ := runObsProgram(t, rec4, 4)

	if !reflect.DeepEqual(res1, res4) {
		t.Errorf("results differ across workers: %+v vs %+v", res1, res4)
	}
	if !reflect.DeepEqual(rec1.Merged(), rec4.Merged()) {
		t.Error("merged event streams differ across host worker counts")
	}
	if !reflect.DeepEqual(rec1.Metrics().Flatten(""), rec4.Metrics().Flatten("")) {
		t.Error("aggregated metrics differ across host worker counts")
	}
}

// TestObsListingInterleavesDeviceEvents: the -trace listing carries
// barrier and network lines between the instruction lines.
func TestObsListingInterleavesDeviceEvents(t *testing.T) {
	rec := obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	_, prog := runObsProgram(t, rec, 1)
	var buf bytes.Buffer
	obs.WriteListing(&buf, rec, Disasm(prog, false))
	out := buf.String()
	for _, want := range []string{"barrier", "net", "mulu"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing has no %q line:\n%s", want, out)
		}
	}
}
