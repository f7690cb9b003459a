package service

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

var updateReplay = flag.Bool("update", false, "rewrite golden replay logs")

// goldenTracePath is the 200-request trace committed by the workload
// package's golden test; the replay regression pins the schedule this
// package produces from those same bytes.
const goldenTracePath = "../workload/testdata/golden_200.tracev1"

func loadGoldenTrace(t *testing.T) *workload.Trace {
	t.Helper()
	raw, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("reading golden trace: %v", err)
	}
	tr, err := workload.Parse(raw)
	if err != nil {
		t.Fatalf("parsing golden trace: %v", err)
	}
	return tr
}

// TestGoldenReplay is the deterministic trace-replay regression: the
// committed 200-request trace must replay to a byte-identical
// outcome/ordering log, under both scheduler modes, on every machine
// and under -race (the suite runs with -race in CI). A diff here means
// the scheduling policy changed — regenerate with -update only when
// that is intentional.
func TestGoldenReplay(t *testing.T) {
	tr := loadGoldenTrace(t)
	for _, tc := range []struct {
		mode   SchedulerMode
		golden string
	}{
		{SchedFCFS, "testdata/golden_replay_fcfs.log"},
		{SchedSJF, "testdata/golden_replay_sjf.log"},
	} {
		t.Run(string(tc.mode), func(t *testing.T) {
			res, err := Replay(tr, ReplayConfig{Sched: tc.mode, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outcomes) != len(tr.Requests) {
				t.Fatalf("replayed %d of %d requests", len(res.Outcomes), len(tr.Requests))
			}
			if *updateReplay {
				if err := os.MkdirAll(filepath.Dir(tc.golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tc.golden, res.Log, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatalf("reading golden log (run with -update to generate): %v", err)
			}
			if !bytes.Equal(res.Log, want) {
				t.Fatalf("replay log diverged from %s (%d vs %d bytes); rerun with -update if the schedule change is intentional",
					tc.golden, len(res.Log), len(want))
			}
		})
	}
}

// TestReplayTwiceIdentical is the acceptance criterion stated
// directly: replaying the same trace twice yields identical schedules
// and identical summaries.
func TestReplayTwiceIdentical(t *testing.T) {
	tr := loadGoldenTrace(t)
	for _, mode := range []SchedulerMode{SchedFCFS, SchedSJF} {
		a, err := Replay(tr, ReplayConfig{Sched: mode, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Replay(tr, ReplayConfig{Sched: mode, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Log, b.Log) {
			t.Fatalf("%s: two replays of the same trace differ", mode)
		}
		if a.Fairness != b.Fairness || a.MakespanUS != b.MakespanUS {
			t.Fatalf("%s: summaries differ across identical replays", mode)
		}
	}
}

// TestReplayExecuteParallelismInvariant: in execute mode the outcome
// log embeds each request's report SHA-256. Replaying with different
// cell parallelism (Options.Parallelism, the engine's cell fan-out)
// must give byte-identical logs — scheduling is virtual-time, and report bytes are a
// pure function of the spec.
func TestReplayExecuteParallelismInvariant(t *testing.T) {
	full := loadGoldenTrace(t)
	// A slice is plenty: every distinct spec executes for real.
	sub := &workload.Trace{Header: full.Header, Requests: full.Requests[:12]}
	sub.Header.Requests = len(sub.Requests)

	logs := make([][]byte, 0, 2)
	for _, par := range []int{1, 4} {
		opts := experiments.DefaultOptions()
		opts.Parallelism = par
		res, err := Replay(sub, ReplayConfig{Sched: SchedSJF, Workers: 2, Execute: true, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			if o.SHA == "" {
				t.Fatalf("execute-mode outcome seq=%d missing report sha", o.Seq)
			}
		}
		logs = append(logs, res.Log)
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatal("execute-mode replay logs differ across host parallelism settings")
	}
}

// TestReplaySJFHelpsShortClass: on the golden trace under queueing
// pressure (one virtual worker), SJF must cut the short class's p99
// versus FCFS without starving the batch class — the same comparison
// scripts/slobench publishes as BENCH_slo.json.
func TestReplaySJFHelpsShortClass(t *testing.T) {
	tr := loadGoldenTrace(t)
	fcfs, err := Replay(tr, ReplayConfig{Sched: SchedFCFS, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sjf, err := Replay(tr, ReplayConfig{Sched: SchedSJF, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fShort, ok := fcfs.Classes["interactive"]
	if !ok {
		t.Fatal("golden trace has no interactive class under fcfs")
	}
	sShort, ok := sjf.Classes["interactive"]
	if !ok {
		t.Fatal("golden trace has no interactive class under sjf")
	}
	if sShort.P99US >= fShort.P99US {
		t.Fatalf("sjf interactive p99 %dus not better than fcfs %dus", sShort.P99US, fShort.P99US)
	}
	// Both modes complete everything: no starvation, same request count
	// per class.
	if sjf.Classes["batch"].Count != fcfs.Classes["batch"].Count {
		t.Fatal("batch completions differ between modes")
	}
}

// TestReplayDefaultsAndErrors: a zero-value config gets the
// documented defaults (1 worker, 8 MHz), invalid specs refuse with a
// request index, pctile handles its edges, and execute mode dedups
// identical specs into one engine run with one shared digest.
func TestReplayDefaultsAndErrors(t *testing.T) {
	spec := experiments.Spec{Exps: []string{"table1"}, Seed: 7}
	tiny := &workload.Trace{
		Header: workload.Header{Name: "tiny", Requests: 2},
		Requests: []workload.Request{
			{Seq: 0, AtUS: 0, Client: "a", Spec: spec},
			{Seq: 1, AtUS: 10, Client: "b", Spec: spec},
		},
	}

	res, err := Replay(tiny, ReplayConfig{})
	if err != nil {
		t.Fatalf("zero-config replay: %v", err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if o.Worker != 0 {
			t.Errorf("default pool should be one worker, outcome on worker %d", o.Worker)
		}
	}

	bad := &workload.Trace{
		Header:   workload.Header{Requests: 1},
		Requests: []workload.Request{{Seq: 0, Spec: experiments.Spec{}}},
	}
	if _, err := Replay(bad, ReplayConfig{}); err == nil {
		t.Error("empty spec should refuse to replay")
	}
	if _, err := Replay(bad, ReplayConfig{Execute: true}); err == nil {
		t.Error("empty spec should refuse to execute")
	}

	if got := pctile(nil, 0.99); got != 0 {
		t.Errorf("pctile of empty = %d, want 0", got)
	}
	if got := pctile([]int64{3, 9}, 0); got != 3 {
		t.Errorf("pctile q=0 = %d, want first element", got)
	}

	// Execute with default options: both requests share one spec, so
	// the engine runs once and both outcomes carry the same digest.
	exec, err := Replay(tiny, ReplayConfig{Execute: true})
	if err != nil {
		t.Fatalf("execute replay: %v", err)
	}
	if exec.Outcomes[0].SHA == "" || exec.Outcomes[0].SHA != exec.Outcomes[1].SHA {
		t.Errorf("dedup digests: %q vs %q", exec.Outcomes[0].SHA, exec.Outcomes[1].SHA)
	}
}
