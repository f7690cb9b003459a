package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/matmul"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range []string{simLockstep, serveCold, serveHit} {
		a, err := newGenerator(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newGenerator(w, 7)
		for i := 0; i < 2000; i++ {
			if x, y := a.next(i), b.next(i); !reflect.DeepEqual(x, y) {
				t.Fatalf("%s op %d: %+v vs %+v", w, i, x, y)
			}
		}
	}
	// The hot-set order is a seeded shuffle, not a fixed cycle.
	g, _ := newGenerator(serveHit, 7)
	seen := map[uint32]bool{}
	for i := 0; i < 200; i++ {
		seen[g.next(i).Seed] = true
	}
	if len(seen) != hotSetSize {
		t.Fatalf("200 hit ops touched %d hot specs, want all %d", len(seen), hotSetSize)
	}
}

func TestDifferentSeedDifferentB(t *testing.T) {
	for _, w := range []string{simLockstep, serveCold} {
		a, _ := newGenerator(w, 1)
		b, _ := newGenerator(w, 2)
		seeds := map[uint32]bool{}
		for i := 0; i < 1000; i++ {
			seeds[a.next(i).Seed] = true
		}
		for i := 0; i < 1000; i++ {
			if seeds[b.next(i).Seed] {
				t.Fatalf("%s: seeds 1 and 2 share spec seed %d", w, b.next(i).Seed)
			}
		}
		for _, c := range a.next(0).Cells {
			if matmul.Equal(matmul.Random(c.N, a.next(0).Seed+uint32(c.N)), matmul.Random(c.N, b.next(0).Seed+uint32(c.N))) {
				t.Fatalf("%s: seeds 1 and 2 give op 0 the same %dx%d B matrix", w, c.N, c.N)
			}
		}
	}
	a, _ := newGenerator(serveHit, 1)
	b, _ := newGenerator(serveHit, 2)
	if reflect.DeepEqual(a.hotSpec(0), b.hotSpec(0)) {
		t.Fatal("seeds 1 and 2 share a hot set")
	}
}

// TestOpsDoEqualWork runs the first ops of each simulating workload
// stepwise: every op must execute the same number of simulated
// instructions and network transfers, and the stepwise bytes must
// equal RunSpec's.
func TestOpsDoEqualWork(t *testing.T) {
	for _, w := range []string{simLockstep, serveCold} {
		g, _ := newGenerator(w, 3)
		var want simCounts
		for i := 0; i < 3; i++ {
			spec := g.next(i)
			tr := &opTrace{}
			got, err := stepwise(tr, benchOptions(), spec)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := experiments.RunSpec(spec, experiments.RunConfig{Options: benchOptions()})
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := rep.Marshal()
			if string(got) != string(ref) {
				t.Fatalf("%s op %d: stepwise report differs from RunSpec's", w, i)
			}
			got1 := tr.counts
			if i == 0 {
				want = got1
			}
			if got1.instrs() == 0 || got1.instrs() != want.instrs() || got1.netTransfers != want.netTransfers {
				t.Fatalf("%s op %d: %d instructions and %d transfers, op 0: %d and %d",
					w, i, got1.instrs(), got1.netTransfers, want.instrs(), want.netTransfers)
			}
		}
	}
}

// TestCorruptedByteFails flips each byte of a correct report in turn;
// the gate must count every flip as a failed op, whether the reference
// digest is known when the op completes (serve-hit) or computed after
// the timed phase (simulation ops), and the intact report as none.
func TestCorruptedByteFails(t *testing.T) {
	g, _ := newGenerator(serveHit, 5)
	spec := g.hotSpec(0)
	rep, err := experiments.RunSpec(spec, experiments.RunConfig{Options: benchOptions()})
	if err != nil {
		t.Fatal(err)
	}
	good, _ := rep.Marshal()
	corrupted := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x01
		return b
	}

	after := newChecker(g)
	after.record(spec.Seed, good)
	for i := range good {
		after.record(spec.Seed, corrupted(i))
	}
	if bad, err := after.verify(); err != nil || bad != len(good) {
		t.Fatalf("%d one-byte corruptions counted as %d failures after the phase (err %v)", len(good), bad, err)
	}

	online := newChecker(g)
	if err := online.references([]uint32{spec.Seed}); err != nil {
		t.Fatal(err)
	}
	if !online.record(spec.Seed, good) {
		t.Fatal("the intact report failed the online check")
	}
	for i := range good {
		if online.record(spec.Seed, corrupted(i)) {
			t.Fatalf("byte %d corrupted passed the online check", i)
		}
	}
}

// TestFailedRequestIsAnError: a non-2xx reply reaches the op as an
// error, which the timed loop counts as a failed op.
func TestFailedRequestIsAnError(t *testing.T) {
	g, _ := newGenerator(serveHit, 1)
	b := &bench{gen: g, opts: benchOptions(), srv: newServer()}
	defer b.srv.close()
	bad := experiments.Spec{Cells: []experiments.CellSpec{{N: 3, P: 1, Muls: 1, Mode: "sisd"}}}
	if _, err := b.op(bad, nil); err == nil {
		t.Fatal("an invalid spec was served without error")
	}
	if _, err := b.op(bad, &opTrace{}); err == nil {
		t.Fatal("an invalid spec was served without error when traced")
	}
}

func TestLedger(t *testing.T) {
	ms := int64(1e6)
	// A simulation op: sequential module spans with gaps.
	sim := []span{
		{levelClient, "matmul.generate", 1 * ms, 2 * ms},
		{levelClient, "pasm.simd_run", 3 * ms, 7 * ms},
	}
	l := ledger(0, 8*ms, sim)
	want := map[string]float64{"matmul.generate": 1, "pasm.simd_run": 4, otherLayer: 3}
	if !reflect.DeepEqual(l, want) || !closes(0, 8*ms, l) {
		t.Fatalf("simulation ledger %v, want %v", l, want)
	}
	// A serving op: the job's queue and run overlap the submit and wait
	// handlers; the deepest span owns each instant.
	srv := []span{
		{levelClient, "client.codec", 1 * ms, 19 * ms},
		{levelHandler, "service.submit", 2 * ms, 5 * ms},
		{levelJob, "service.queue_wait", 4 * ms, 6 * ms},
		{levelJob, "service.run", 6 * ms, 15 * ms},
		{levelHandler, "service.wait", 7 * ms, 16 * ms},
		{levelHandler, "service.result", 17 * ms, 18 * ms},
	}
	l = ledger(0, 20*ms, srv)
	want = map[string]float64{
		otherLayer: 2, "client.codec": 3, "service.submit": 2, "service.queue_wait": 2,
		"service.run": 9, "service.wait": 1, "service.result": 1,
	}
	if !reflect.DeepEqual(l, want) || !closes(0, 20*ms, l) {
		t.Fatalf("serving ledger %v, want %v", l, want)
	}
	if closes(0, 21*ms, l) {
		t.Fatal("a ledger missing 1 ms of the op was accepted as closed")
	}
}

// TestTracedColdOp traces one real serve-cold op end to end: the
// ledger closes, the service work lands in service.run, and the replay
// splits it into module times.
func TestTracedColdOp(t *testing.T) {
	g, _ := newGenerator(serveCold, 2)
	b := &bench{gen: g, opts: benchOptions(), srv: newServer()}
	defer b.srv.close()
	p := &phase{traced: newReservoir[tracedOp](1)}
	spec := g.next(0)
	tr := &opTrace{}
	t0 := now()
	out, err := b.op(spec, tr)
	t1 := now()
	if err == nil {
		err = b.reduce(p, spec, tr, t0, t1, out)
	}
	if err != nil {
		t.Fatal(err)
	}
	op := p.traced.buf[0]
	for _, layer := range []string{"service.submit", "service.wait", "service.result", "service.run", "client.codec", "pasm.mimd_run", "pasm.new_vm"} {
		if op.layers[layer] <= 0 {
			t.Errorf("layer %s has no time: %v", layer, op.layers)
		}
	}
	if op.counts.instrs() == 0 || op.counts.netTransfers == 0 {
		t.Errorf("replay counted no simulated work: %+v", op.counts)
	}
}

// TestMetricsMatchBenchmarkJSON: the benchmark prints exactly the
// metrics, with the units, that BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name+" "+m.unit)
	}
	for _, m := range layerTable {
		layers = append(layers, m.name+" "+m.unit)
	}
	var wantE2E, wantLayers []string
	for _, m := range decl.EndToEnd {
		wantE2E = append(wantE2E, m.Name+" "+m.Unit)
	}
	for _, m := range decl.PerLayer {
		wantLayers = append(wantLayers, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(wantE2E)
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", e2e, wantE2E)
	}
	if !reflect.DeepEqual(layers, wantLayers) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", layers, wantLayers)
	}
}

func TestReservoir(t *testing.T) {
	r := newReservoir[int](100)
	for i := 0; i < 50; i++ {
		r.add(i)
	}
	if len(r.buf) != 50 || r.buf[49] != 49 {
		t.Fatalf("under capacity the reservoir must keep every value in order, got %v", r.buf)
	}
	for i := 50; i < 100000; i++ {
		r.add(i)
	}
	// A uniform sample of 0..99999 has its median near 50000.
	v := make([]float64, len(r.buf))
	for i, x := range r.buf {
		v[i] = float64(x)
	}
	if len(v) != 100 || median(v) < 35000 || median(v) > 65000 {
		t.Fatalf("sample of %d values has median %.0f", len(v), median(v))
	}
}
