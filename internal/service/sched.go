package service

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/model"
)

// SchedulerMode selects how queued jobs are ordered.
type SchedulerMode string

// Scheduler modes. FCFS is the pre-SLO behavior (strict arrival
// order); SJF is class-priority + shortest-job-first: jobs are ordered
// by SLO class urgency first (smaller SLO target = more urgent,
// classless best-effort last), then by predicted cost within a class,
// so a table1 probe never queues behind an n=64 sweep that arrived
// first. Aged long jobs are promoted after starveLimit bypasses, with
// the symmetric bound that no promotion may push any more-urgent
// waiter past starveLimit bypasses of its own — the property test's
// "no short request waits behind >K long requests" holds by
// construction.
const (
	SchedFCFS SchedulerMode = "fcfs"
	SchedSJF  SchedulerMode = "sjf"
)

// ParseSchedulerMode parses a -sched flag value.
func ParseSchedulerMode(s string) (SchedulerMode, error) {
	switch SchedulerMode(strings.ToLower(s)) {
	case "", SchedFCFS:
		return SchedFCFS, nil
	case SchedSJF, "priority", "slo":
		return SchedSJF, nil
	}
	return "", fmt.Errorf("service: unknown scheduler %q (want fcfs or sjf)", s)
}

// starveLimit is how many times a lower-priority job may be bypassed
// before SJF promotes it ahead of the urgent classes (and,
// symmetrically, how many promotions any urgent job can suffer).
const starveLimit = 8

// bestEffortPrio orders classless/SLO-less jobs after every class with
// a target.
const bestEffortPrio = int64(math.MaxInt64)

// classPriority maps an SLO target to a priority rank: tighter target,
// smaller rank, scheduled sooner. No target = best effort.
func classPriority(sloMS int64) int64 {
	if sloMS <= 0 {
		return bestEffortPrio
	}
	return sloMS
}

// ParseClasses parses the -classes flag: comma-separated
// "name=slo_ms" declarations giving each SLO class its default
// latency target ("batch=0" declares a best-effort class).
func ParseClasses(s string) (map[string]int64, error) {
	out := map[string]int64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("service: class %q is not name=slo_ms", part)
		}
		name := strings.TrimSpace(part[:eq])
		var slo int64
		if _, err := fmt.Sscanf(strings.TrimSpace(part[eq+1:]), "%d", &slo); err != nil {
			return nil, fmt.Errorf("service: class %q: bad slo: %w", part, err)
		}
		if slo < 0 {
			return nil, fmt.Errorf("service: class %q: negative slo", part)
		}
		out[name] = slo
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("service: no classes in %q", s)
	}
	return out, nil
}

// expCostCycles is the static predicted cost of each named sweep, in
// simulated cycles — rough magnitudes good enough to rank sweeps
// against cells and each other (the SJF key needs ordering, not
// accuracy). Custom cells use the closed-form model.CellCycles.
var expCostCycles = map[string]float64{
	"table1": 3e5,
	"fig6":   2e6, "fig7": 2e6, "fig8": 3e6, "fig9": 3e6,
	"fig10": 3e6, "fig11": 4e6, "fig12": 4e6,
	"ext-crossover": 8e6, "ext-model": 4e6, "ext-fault": 4e6,
	"ext-workloads": 1.2e7, "ext-mixed": 8e6, "ext-partition": 1.2e7,
}

// predictCost estimates a normalized spec's cost in simulated cycles:
// the Section 4 closed-form algebra for custom cells, static sweep
// weights for named experiments. Pure function of the spec — the
// scheduler it drives is deterministic under trace replay.
func predictCost(spec experiments.Spec) float64 {
	m := model.PrototypeMachine()
	var c float64
	for _, exp := range spec.Exps {
		w, ok := expCostCycles[exp]
		if !ok {
			w = 2e6
		}
		if spec.Full {
			w *= 6 // the full problem-size set is ~6x the quick set
		}
		c += w
	}
	for _, cell := range spec.Cells {
		c += m.CellCycles(cell.Mode, cell.N, cell.P, cell.Muls)
	}
	return c
}

// schedQueue holds the admitted-but-unstarted jobs between Submit and
// the dispatcher. It is the only backlog: the dispatcher pops from it
// when capacity frees up (TryPopFit), so the pop order is the
// scheduling policy in both capacity modes.
type schedQueue struct {
	mode        SchedulerMode
	starveLimit int

	mu       sync.Mutex
	entries  []*job // arrival order
	cand     []*job // TryPopFit scratch: the fitting entries
	closed   bool
	promoted int64 // aging promotions (metric)
}

// newSchedQueue returns an empty queue; the service and Replay pass
// starveLimit, the property tests vary limit.
func newSchedQueue(mode SchedulerMode, limit int) *schedQueue {
	if mode == "" {
		mode = SchedFCFS
	}
	return &schedQueue{mode: mode, starveLimit: limit}
}

// Push appends an arrival. The caller (Submit, under Service.mu) has
// verified capacity and that the queue is not closed.
func (q *schedQueue) Push(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		panic("service: push on closed scheduler queue")
	}
	q.entries = append(q.entries, j)
}

// Len returns the queued-job count.
func (q *schedQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// Promoted returns how many aged jobs were promoted past urgent ones.
func (q *schedQueue) Promoted() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.promoted
}

// Close stops future pushes; queued entries still drain.
func (q *schedQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// Drained reports closed-and-empty (the dispatcher's exit condition).
func (q *schedQueue) Drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed && len(q.entries) == 0
}

// fitsAll is the fit predicate of a free worker slot (and of Replay's
// virtual pool): every entry fits.
func fitsAll(*job) bool { return true }

// TryPopFit removes and returns the entry the scheduling policy starts
// next among those fit accepts; ok=false means no queued entry fits.
// FCFS takes the earliest-arrived fitting entry (first fit, the
// partition.Pick rule); SJF runs pickLocked over the fitting entries.
// fit is called under the queue lock, so it must not call back into
// the queue.
func (q *schedQueue) TryPopFit(fit func(*job) bool) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cand = q.cand[:0]
	for _, e := range q.entries {
		if fit(e) {
			q.cand = append(q.cand, e)
			if q.mode != SchedSJF {
				break
			}
		}
	}
	if len(q.cand) == 0 {
		return nil, false
	}
	j := q.pickLocked(q.cand)
	i := slices.Index(q.entries, j)
	q.entries = slices.Delete(q.entries, i, i+1)
	return j, true
}

// Shed removes every entry drop reports true for and returns them in
// arrival order (nil when none). Unlike a pop it charges no SJF
// bypasses: a shed job was never scheduled.
func (q *schedQueue) Shed(drop func(*job) bool) []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var shed []*job
	q.entries = slices.DeleteFunc(q.entries, func(j *job) bool {
		if drop(j) {
			shed = append(shed, j)
			return true
		}
		return false
	})
	return shed
}

// pickLocked chooses the next job among the candidates c (in arrival
// order). FCFS: the first. SJF: the aging rule first — the oldest
// candidate bypassed at least starveLimit times is promoted, unless
// promoting it would push a more-urgent candidate past starveLimit
// bypasses of its own (the veto that bounds every urgent job's total
// bypasses) — then the best (class priority, predicted cost, arrival)
// triple. Bookkeeping: a normal pick charges one bypass to every
// strictly-less-urgent candidate; a promotion charges one to every
// strictly-more-urgent candidate.
func (q *schedQueue) pickLocked(c []*job) *job {
	if q.mode != SchedSJF || len(c) == 1 {
		return c[0]
	}
	var aged *job
	for _, e := range c {
		if e.skipped >= q.starveLimit && (aged == nil || e.seq < aged.seq) {
			aged = e
		}
	}
	if aged != nil {
		ok := true
		for _, e := range c {
			if e.classPrio < aged.classPrio && e.bypassed >= q.starveLimit {
				ok = false
				break
			}
		}
		if ok {
			for _, e := range c {
				if e.classPrio < aged.classPrio {
					e.bypassed++
				}
			}
			q.promoted++
			return aged
		}
	}
	best := c[0]
	for _, e := range c[1:] {
		if schedLess(e, best) {
			best = e
		}
	}
	for _, e := range c {
		if e != best && e.classPrio > best.classPrio {
			e.skipped++
		}
	}
	return best
}

// schedLess is the SJF order: class urgency, then predicted cost,
// then arrival.
func schedLess(a, b *job) bool {
	if a.classPrio != b.classPrio {
		return a.classPrio < b.classPrio
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.seq < b.seq
}
