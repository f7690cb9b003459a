package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Trace replay: a virtual-time discrete-event simulation of the
// service's scheduler over a recorded workload trace. Arrivals come
// from the trace, service times from the same predictCost the live
// SJF scheduler keys on (scaled to the prototype's clock), and the
// queue is the real schedQueue — so the replayed schedule exercises
// exactly the ordering logic production runs, while being a pure
// function of (trace, config): byte-identical on every run, machine,
// -race setting, and cell parallelism. That purity is what the
// golden regression test and the FCFS-vs-SJF bench lock down.
//
// Execute mode additionally runs every distinct spec through the real
// engine once and stamps each outcome with its report's SHA-256 —
// byte-identity of results across scheduler modes and cell
// parallelism (Options.Parallelism) rides on the simulator's own
// determinism guarantee.

// ReplayConfig drives Replay.
type ReplayConfig struct {
	// Sched selects the queue policy under test.
	Sched SchedulerMode
	// Workers is the virtual worker-pool size. Default 1.
	Workers int
	// ClockHz converts predicted cycles to virtual service time.
	// Default 8e6 (the prototype's 8 MHz).
	ClockHz float64
	// Execute runs each distinct spec through the real engine and
	// stamps outcomes with the report SHA-256. Virtual mode (default)
	// never executes anything.
	Execute bool
	// Options configures execution in Execute mode.
	Options experiments.Options
}

// ReplayOutcome is one request's scheduled lifetime, in virtual
// microseconds since trace start. Outcomes are logged in completion
// order (ties: worker index), which is the schedule itself.
type ReplayOutcome struct {
	Seq        int    `json:"seq"`
	Client     string `json:"client"`
	Class      string `json:"class,omitempty"`
	SLOMs      int64  `json:"slo_ms,omitempty"`
	ArriveUS   int64  `json:"arrive_us"`
	StartUS    int64  `json:"start_us"`
	FinishUS   int64  `json:"finish_us"`
	Worker     int    `json:"worker"`
	CostCycles int64  `json:"cost_cycles"`
	SHA        string `json:"sha256,omitempty"`
}

// ClassStats summarizes one class's replayed latency (virtual µs).
type ClassStats struct {
	Count   int   `json:"count"`
	P50US   int64 `json:"p50_us"`
	P95US   int64 `json:"p95_us"`
	P99US   int64 `json:"p99_us"`
	MaxUS   int64 `json:"max_us"`
	SLOMs   int64 `json:"slo_ms,omitempty"`
	SLOMiss int   `json:"slo_miss,omitempty"`
}

// ReplayResult is the schedule plus its summary.
type ReplayResult struct {
	Outcomes []ReplayOutcome
	// Log is the canonical JSONL encoding of Outcomes — the bytes the
	// golden regression test pins.
	Log []byte
	// Classes maps each class ("" = best effort) to its latency stats.
	Classes map[string]ClassStats
	// Fairness is Jain's index over per-client completion counts.
	Fairness float64
	// MakespanUS is the last completion time.
	MakespanUS int64
	// Promoted counts anti-starvation promotions the queue performed.
	Promoted int64
}

// Replay schedules every request of the trace. The event loop is
// deterministic by construction: completions process before arrivals
// at the same instant (a freed worker is visible to a simultaneous
// arrival), ties among completions break by worker index, and idle
// workers are claimed lowest-index first.
func Replay(tr *workload.Trace, cfg ReplayConfig) (*ReplayResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ClockHz <= 0 {
		cfg.ClockHz = 8e6
	}
	shas, err := executeTrace(tr, cfg)
	if err != nil {
		return nil, err
	}

	q := newSchedQueue(cfg.Sched, starveLimit)
	type running struct {
		j        *job
		startUS  int64
		finishUS int64
		worker   int
	}
	jobs := make([]*job, len(tr.Requests))
	costs := make([]int64, len(tr.Requests))
	for i, r := range tr.Requests {
		norm, err := r.Spec.Normalize()
		if err != nil {
			return nil, fmt.Errorf("service: replay request %d: %w", i, err)
		}
		cost := predictCost(norm)
		costs[i] = int64(math.Round(cost))
		jobs[i] = &job{
			seq:       i,
			spec:      norm,
			class:     r.Class,
			slo:       r.SLOMs,
			client:    r.Client,
			cost:      cost,
			classPrio: classPriority(r.SLOMs),
		}
	}
	serviceUS := func(i int) int64 {
		us := int64(math.Round(float64(costs[i]) / cfg.ClockHz * 1e6))
		if us < 1 {
			us = 1
		}
		return us
	}

	var busy []running // kept sorted by (finishUS, worker)
	idle := make([]bool, cfg.Workers)
	for i := range idle {
		idle[i] = true
	}
	nIdle := cfg.Workers
	res := &ReplayResult{Classes: map[string]ClassStats{}}
	next := 0 // next arrival index

	dispatch := func(nowUS int64) {
		for nIdle > 0 {
			j, ok := q.TryPopFit(fitsAll)
			if !ok {
				return
			}
			w := 0
			for !idle[w] {
				w++
			}
			idle[w] = false
			nIdle--
			r := running{j: j, startUS: nowUS, finishUS: nowUS + serviceUS(j.seq), worker: w}
			at := sort.Search(len(busy), func(i int) bool {
				if busy[i].finishUS != r.finishUS {
					return busy[i].finishUS > r.finishUS
				}
				return busy[i].worker > r.worker
			})
			busy = append(busy, running{})
			copy(busy[at+1:], busy[at:])
			busy[at] = r
		}
	}

	for next < len(tr.Requests) || len(busy) > 0 {
		// Completions first at equal timestamps: the freed worker must
		// be schedulable by a simultaneous arrival.
		if len(busy) > 0 && (next >= len(tr.Requests) || busy[0].finishUS <= tr.Requests[next].AtUS) {
			r := busy[0]
			busy = busy[1:]
			idle[r.worker] = true
			nIdle++
			res.Outcomes = append(res.Outcomes, ReplayOutcome{
				Seq:        r.j.seq,
				Client:     r.j.client,
				Class:      r.j.class,
				SLOMs:      r.j.slo,
				ArriveUS:   tr.Requests[r.j.seq].AtUS,
				StartUS:    r.startUS,
				FinishUS:   r.finishUS,
				Worker:     r.worker,
				CostCycles: costs[r.j.seq],
				SHA:        shas[r.j.seq],
			})
			if r.finishUS > res.MakespanUS {
				res.MakespanUS = r.finishUS
			}
			dispatch(r.finishUS)
			continue
		}
		nowUS := tr.Requests[next].AtUS
		for next < len(tr.Requests) && tr.Requests[next].AtUS == nowUS {
			q.Push(jobs[next])
			next++
		}
		dispatch(nowUS)
	}
	res.Promoted = q.Promoted()

	var buf bytes.Buffer
	for _, o := range res.Outcomes {
		line, err := json.Marshal(o)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	res.Log = buf.Bytes()
	res.summarize()
	return res, nil
}

// summarize derives per-class latency stats and the fairness index.
func (res *ReplayResult) summarize() {
	lat := map[string][]int64{}
	perClient := map[string]int64{}
	for _, o := range res.Outcomes {
		lat[o.Class] = append(lat[o.Class], o.FinishUS-o.ArriveUS)
		perClient[o.Client]++
	}
	for class, ls := range lat {
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		cs := ClassStats{
			Count: len(ls),
			P50US: pctile(ls, 0.50),
			P95US: pctile(ls, 0.95),
			P99US: pctile(ls, 0.99),
			MaxUS: ls[len(ls)-1],
		}
		for _, o := range res.Outcomes {
			if o.Class != class {
				continue
			}
			if o.SLOMs > cs.SLOMs {
				cs.SLOMs = o.SLOMs
			}
			if o.SLOMs > 0 && o.FinishUS-o.ArriveUS > o.SLOMs*1000 {
				cs.SLOMiss++
			}
		}
		res.Classes[class] = cs
	}
	counts := make([]float64, 0, len(perClient))
	for _, n := range perClient {
		counts = append(counts, float64(n))
	}
	res.Fairness = stats.Jain(counts)
}

// pctile is the exact order-statistic quantile of a sorted slice.
func pctile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// executeTrace (Execute mode) runs each distinct spec once through
// the real engine and returns per-request report SHA-256 hex. Specs
// run sequentially in first-appearance order; the report bytes are a
// pure function of the spec, so the digests are schedule-independent
// — which is exactly the property the bench asserts when it compares
// digests across scheduler modes.
func executeTrace(tr *workload.Trace, cfg ReplayConfig) ([]string, error) {
	shas := make([]string, len(tr.Requests))
	if !cfg.Execute {
		return shas, nil
	}
	opts := cfg.Options
	if opts.Config.NumPEs == 0 {
		par := opts.Parallelism
		opts = experiments.DefaultOptions()
		opts.Parallelism = par
	}
	byKey := map[string]string{}
	for i, r := range tr.Requests {
		norm, err := r.Spec.Normalize()
		if err != nil {
			return nil, err
		}
		key, err := norm.KeyString()
		if err != nil {
			return nil, err
		}
		if sha, ok := byKey[key]; ok {
			shas[i] = sha
			continue
		}
		rep, err := experiments.RunSpecContext(context.Background(), norm, experiments.RunConfig{Options: opts})
		if err != nil {
			return nil, fmt.Errorf("service: replay execute request %d: %w", i, err)
		}
		raw, err := rep.Marshal()
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(raw)
		byKey[key] = hex.EncodeToString(sum[:])
		shas[i] = byKey[key]
	}
	return shas, nil
}
