package service

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/experiments"
)

// Scheduler properties, checked over randomized workloads
// (testing/quick seeds a PRNG that builds the job mix):
//
//  1. SJF ordering: with everything queued, pops come out sorted by
//     (class urgency, predicted cost, arrival).
//  2. Bounded bypass: no short-class (urgent) request is overtaken by
//     more than starveLimit long-class requests that arrived after it
//     — the anti-starvation promotion is itself bounded.
//  3. No starvation: every job pops eventually (trivially true for a
//     drain loop, asserted for completeness).
//  4. FCFS mode is strict arrival order regardless of class/cost.

func mkJob(seq int, sloMS int64, cost float64) *job {
	return &job{seq: seq, slo: sloMS, cost: cost, classPrio: classPriority(sloMS)}
}

// randomJobs builds a mixed workload: ~1/3 urgent (slo 50ms) cheap
// jobs, the rest best-effort with random, mostly larger costs.
func randomJobs(rng *rand.Rand, n int) []*job {
	jobs := make([]*job, n)
	for i := range jobs {
		if rng.Intn(3) == 0 {
			jobs[i] = mkJob(i, 50, 1e5+float64(rng.Intn(100)))
		} else {
			jobs[i] = mkJob(i, 0, 1e6+float64(rng.Intn(1_000_000)))
		}
	}
	return jobs
}

func TestSchedSJFOrdering(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newSchedQueue(SchedSJF, 1_000_000) // starvation aging off
		jobs := randomJobs(rng, 2+rng.Intn(40))
		for _, j := range jobs {
			q.Push(j)
		}
		var prev *job
		for range jobs {
			j, ok := q.TryPop()
			if !ok {
				return false
			}
			if prev != nil && schedLess(j, prev) {
				t.Logf("seed %d: job seq=%d popped after seq=%d out of order", seed, j.seq, prev.seq)
				return false
			}
			prev = j
		}
		_, ok := q.TryPop()
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedFCFSIsArrivalOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newSchedQueue(SchedFCFS, starveLimit)
		jobs := randomJobs(rng, 1+rng.Intn(30))
		for _, j := range jobs {
			q.Push(j)
		}
		for i := range jobs {
			j, ok := q.TryPop()
			if !ok || j.seq != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedBoundedBypass is the satellite property: under SJF with
// aging, no urgent (short-class) request waits behind more than
// starveLimit long-class requests — counted as best-effort jobs that
// pop while the urgent one is queued. Random interleaving of pushes
// and pops exercises promotions and their veto.
func TestSchedBoundedBypass(t *testing.T) {
	const limit = 4
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newSchedQueue(SchedSJF, limit)
		jobs := randomJobs(rng, 30+rng.Intn(60))
		// To *force* starvation pressure, make the best-effort jobs old:
		// push a long prefix of them first, then interleave.
		queued := map[int]bool{}   // urgent jobs currently waiting
		overtaken := map[int]int{} // urgent seq -> best-effort pops while waiting
		popped := 0
		next := 0
		push := func() {
			j := jobs[next]
			q.Push(j)
			if j.classPrio != bestEffortPrio {
				queued[j.seq] = true
			}
			next++
		}
		pop := func() bool {
			j, ok := q.TryPop()
			if !ok {
				return true
			}
			popped++
			if j.classPrio == bestEffortPrio {
				for seq := range queued {
					overtaken[seq]++
					if overtaken[seq] > limit {
						t.Logf("seed %d: urgent seq=%d overtaken %d times (> %d)", seed, seq, overtaken[seq], limit)
						return false
					}
				}
			} else {
				delete(queued, j.seq)
			}
			return true
		}
		for next < len(jobs) || popped < len(jobs) {
			if next < len(jobs) && (popped == len(jobs) || rng.Intn(2) == 0) {
				push()
			} else if !pop() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedAgingPromotes checks the flip side: a best-effort job under
// constant urgent pressure is promoted after starveLimit bypasses
// rather than waiting forever.
func TestSchedAgingPromotes(t *testing.T) {
	const limit = 3
	q := newSchedQueue(SchedSJF, limit)
	batch := mkJob(0, 0, 1e7)
	q.Push(batch)
	seq := 1
	for i := 0; i < 2*limit; i++ {
		q.Push(mkJob(seq, 10, 1e4))
		seq++
		j, ok := q.TryPop()
		if !ok {
			t.Fatal("queue unexpectedly empty")
		}
		if j == batch {
			if i < limit {
				t.Fatalf("batch job promoted after only %d bypasses (limit %d)", i, limit)
			}
			if q.Promoted() != 1 {
				t.Fatalf("Promoted() = %d, want 1", q.Promoted())
			}
			return
		}
	}
	t.Fatalf("batch job never promoted after %d bypasses (limit %d)", 2*limit, limit)
}

// TestSchedPromotionVeto: the promotion cannot push an urgent waiter
// past starveLimit bypasses of its own.
func TestSchedPromotionVeto(t *testing.T) {
	const limit = 2
	q := newSchedQueue(SchedSJF, limit)
	// An aged batch job...
	batch := mkJob(0, 0, 1e7)
	batch.skipped = limit
	// ...and an urgent waiter that has already absorbed limit
	// promotions cannot be bypassed again.
	urgent := mkJob(1, 5, 1e4)
	urgent.bypassed = limit
	q.Push(batch)
	q.Push(urgent)
	j, ok := q.TryPop()
	if !ok || j != urgent {
		t.Fatalf("veto failed: urgent job with %d bypasses was overtaken again", limit)
	}
}

func TestParseSchedulerMode(t *testing.T) {
	for in, want := range map[string]SchedulerMode{
		"": SchedFCFS, "fcfs": SchedFCFS,
		"sjf": SchedSJF, "priority": SchedSJF, "slo": SchedSJF, "SJF": SchedSJF,
	} {
		got, err := ParseSchedulerMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSchedulerMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSchedulerMode("lifo"); err == nil {
		t.Fatal("ParseSchedulerMode(lifo) should fail")
	}
}

func TestParseClasses(t *testing.T) {
	m, err := ParseClasses("interactive=50, batch=0")
	if err != nil {
		t.Fatal(err)
	}
	if m["interactive"] != 50 || m["batch"] != 0 {
		t.Fatalf("ParseClasses = %v", m)
	}
	for _, bad := range []string{"", "x", "=5", "a=-1", "a=b"} {
		if _, err := ParseClasses(bad); err == nil {
			t.Fatalf("ParseClasses(%q) should fail", bad)
		}
	}
}

func TestPredictCostRanks(t *testing.T) {
	cell := func(n, p int, mode string) experiments.Spec {
		return experiments.Spec{Cells: []experiments.CellSpec{{N: n, P: p, Muls: 1, Mode: mode}}}
	}
	small, err := cell(8, 4, "simd").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	big, err := cell(64, 16, "smimd").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if predictCost(small) >= predictCost(big) {
		t.Fatalf("predictCost: small cell %.0f >= big cell %.0f", predictCost(small), predictCost(big))
	}
	probe, err := (experiments.Spec{Exps: []string{"table1"}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := (experiments.Spec{Exps: []string{"ext-workloads"}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if predictCost(probe) >= predictCost(sweep) {
		t.Fatal("predictCost: table1 should be cheaper than ext-workloads")
	}
	full := probe
	full.Full = true
	if predictCost(full) <= predictCost(probe) {
		t.Fatal("predictCost: full sweep should cost more than quick")
	}
}

// TryPop pops with every entry fitting: the pick a free worker slot
// (or Replay's virtual pool) makes.
func (q *schedQueue) TryPop() (*job, bool) { return q.TryPopFit(fitsAll) }

// sizedJobs is randomJobs' mix with a random power-of-two partition size.
func sizedJobs(rng *rand.Rand, n int) []*job {
	jobs := randomJobs(rng, n)
	for _, j := range jobs {
		j.spec.PEs = 1 << rng.Intn(5)
	}
	return jobs
}

// TestTryPopFitProperty drives the one pop method with random fit
// predicates — a random count of free PEs, as a partition machine
// would offer — over random interleavings of pushes and pops:
//
//  1. A pop returns a fitting queued entry, and fails (leaving the
//     queue untouched) exactly when no queued entry fits.
//  2. FCFS pops the earliest-arrived fitting entry (first fit).
//  3. SJF without aging pops the schedLess-least fitting entry.
//  4. SJF with aging: no urgent job that fits is overtaken by more than
//     starveLimit best-effort pops (the bounded-bypass property of
//     TestSchedBoundedBypass, restricted to pops it could have taken).
func TestTryPopFitProperty(t *testing.T) {
	const limit = 3
	for _, tc := range []struct {
		name  string
		mode  SchedulerMode
		limit int
	}{
		{"fcfs", SchedFCFS, limit},
		{"sjf-no-aging", SchedSJF, 1_000_000},
		{"sjf-aging", SchedSJF, limit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				q := newSchedQueue(tc.mode, tc.limit)
				jobs := sizedJobs(rng, 20+rng.Intn(60))
				var queued []*job          // model of the queue, arrival order
				overtaken := map[int]int{} // urgent seq -> best-effort pops it fit for
				next, popped := 0, 0
				for next < len(jobs) || popped < len(jobs) {
					if next < len(jobs) && (popped == len(jobs) || rng.Intn(2) == 0) {
						q.Push(jobs[next])
						queued = append(queued, jobs[next])
						next++
						continue
					}
					free := 0
					if rng.Intn(4) > 0 {
						free = 1 << rng.Intn(5)
					}
					fit := func(j *job) bool { return j.spec.PEs <= free }
					var fitting []*job
					for _, e := range queued {
						if fit(e) {
							fitting = append(fitting, e)
						}
					}
					j, ok := q.TryPopFit(fit)
					if !ok {
						if len(fitting) > 0 || q.Len() != len(queued) {
							t.Logf("seed %d: no pop with %d fitting of %d queued (queue len %d)", seed, len(fitting), len(queued), q.Len())
							return false
						}
						continue
					}
					at := slices.Index(queued, j)
					if at < 0 || !fit(j) {
						t.Logf("seed %d: popped seq=%d (queued=%v, fits=%v)", seed, j.seq, at >= 0, fit(j))
						return false
					}
					queued = slices.Delete(queued, at, at+1)
					popped++
					switch {
					case tc.mode == SchedFCFS && j != fitting[0]:
						t.Logf("seed %d: fcfs popped seq=%d, first fit is seq=%d", seed, j.seq, fitting[0].seq)
						return false
					case tc.mode == SchedSJF && tc.limit > len(jobs):
						for _, e := range fitting {
							if schedLess(e, j) {
								t.Logf("seed %d: sjf popped seq=%d ahead of fitting seq=%d", seed, j.seq, e.seq)
								return false
							}
						}
					case tc.mode == SchedSJF && j.classPrio == bestEffortPrio:
						for _, e := range fitting {
							if e.classPrio == bestEffortPrio {
								continue
							}
							if overtaken[e.seq]++; overtaken[e.seq] > tc.limit {
								t.Logf("seed %d: urgent seq=%d overtaken %d times (> %d)", seed, e.seq, overtaken[e.seq], tc.limit)
								return false
							}
						}
					}
				}
				return q.Len() == 0
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTryPopFitAgesOnlyFitting: a pop charges SJF bypasses only to
// the entries that fit. A best-effort job too large for the free
// capacity is not aged by the urgent pops it could not have taken, so
// once it fits it still waits its full starveLimit bypasses.
func TestTryPopFitAgesOnlyFitting(t *testing.T) {
	const limit = 2
	q := newSchedQueue(SchedSJF, limit)
	big := mkJob(0, 0, 1e7)
	big.spec.PEs = 16
	q.Push(big)
	for seq := 1; seq <= 2*limit+3; seq++ {
		j := mkJob(seq, 10, 1e4)
		j.spec.PEs = 4
		q.Push(j)
	}
	small := func(j *job) bool { return j.spec.PEs <= 4 }
	for i := 0; i < 2*limit; i++ {
		if j, ok := q.TryPopFit(small); !ok || j == big {
			t.Fatalf("pop %d with 4 PEs free: got %v, %v", i, j, ok)
		}
	}
	for i := 0; i < limit; i++ {
		if j, _ := q.TryPop(); j == big {
			t.Fatalf("big job promoted after %d bypasses it could take (limit %d)", i, limit)
		}
	}
	if j, _ := q.TryPop(); j != big {
		t.Fatalf("big job not promoted after %d bypasses (limit %d)", limit, limit)
	}
}

// TestDispatchAgingBothModes: SJF aging holds on the live dispatcher in
// both capacity modes. One slot (one worker, or a machine holding one
// default-size partition) runs job 1 while a best-effort job queues
// ahead of starveLimit+2 urgent ones; the best-effort job must start
// after at most starveLimit urgent jobs, and both modes start the jobs
// in the same order.
func TestDispatchAgingBothModes(t *testing.T) {
	const urgent = starveLimit + 2
	want := []uint32{1}
	for seed := uint32(10); seed < 10+starveLimit; seed++ {
		want = append(want, seed)
	}
	want = append(want, 2, 10+starveLimit, 11+starveLimit)
	for _, partitioned := range []bool{false, true} {
		name := "pool"
		if partitioned {
			name = "partition"
		}
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var order []uint32
			gate := make(chan struct{})
			cfg := Config{Workers: 1, QueueDepth: 16, Sched: SchedSJF,
				run: func(_ context.Context, spec experiments.Spec) ([]byte, error) {
					mu.Lock()
					order = append(order, spec.Seed)
					mu.Unlock()
					<-gate
					return []byte("x\n"), nil
				}}
			if partitioned {
				cfg.Machine = newServiceMachine(t, experiments.DefaultPEs)
			}
			s := New(cfg)
			first, err := s.Submit(specN(1), time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			waitRunning(t, s, first.ID)
			if _, err := s.Submit(specN(2), time.Time{}); err != nil {
				t.Fatal(err)
			}
			for seed := uint32(10); seed < 10+urgent; seed++ {
				if _, err := s.SubmitWith(specN(seed), SubmitOpts{SLOMs: 50}); err != nil {
					t.Fatal(err)
				}
			}
			close(gate)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if bypassed := slices.Index(order, 2) - 1; bypassed > starveLimit {
				t.Errorf("best-effort job started after %d urgent jobs (limit %d); start order %v", bypassed, starveLimit, order)
			}
			if !slices.Equal(order, want) {
				t.Errorf("start order %v, want %v", order, want)
			}
		})
	}
}

func TestResolveSLO(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, run: g.run,
		Classes: map[string]int64{"interactive": 50}})
	defer func() { g.release(); s.Shutdown(context.Background()) }()

	cases := []struct {
		opts SubmitOpts
		want int64
		ok   bool
	}{
		{SubmitOpts{Class: "interactive"}, 50, true},            // class default
		{SubmitOpts{Class: "interactive", SLOMs: 20}, 20, true}, // explicit wins
		{SubmitOpts{Class: "unknown"}, 0, true},                 // undeclared: best effort
		{SubmitOpts{}, 0, true},
		{SubmitOpts{SLOMs: -1}, 0, false},
		{SubmitOpts{Class: "bad class"}, 0, false}, // space is not metric-key safe
		{SubmitOpts{Class: strings.Repeat("x", 65)}, 0, false},
	}
	for i, c := range cases {
		got, err := s.resolveSLO(c.opts)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("case %d: slo = %d, want %d", i, got, c.want)
		}
	}
}

func TestRateLimitedErrorMessage(t *testing.T) {
	e := &RateLimitedError{Client: "greedy", RetryAfter: 250 * time.Millisecond}
	msg := e.Error()
	for _, frag := range []string{"greedy", "250ms"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q missing %q", msg, frag)
		}
	}
}
