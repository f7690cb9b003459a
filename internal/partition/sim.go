package partition

import (
	"fmt"
	"sort"
)

// The co-scheduling simulator: a discrete-event model of the
// partition scheduler on the SIMULATED clock. Job durations come from
// real standalone cell simulations — which the subcube isomorphism
// makes exact for any placement — so packing those durations onto the
// machine with the first-fit scheduler (Pick) reproduces,
// deterministically, the timeline a host-concurrent partitioned run
// would take. The ext-partition
// experiment and the partition benchmark are built on it.

// SimJob is one job offered to the simulated scheduler.
type SimJob struct {
	// Name identifies the job in results.
	Name string
	// PEs is the requested partition size.
	PEs int
	// Cycles is the job's run time on a PEs-sized machine (from a
	// real simulation; placement-independent by the subcube
	// isomorphism).
	Cycles int64
	// Arrival is the submission time on the simulated clock.
	Arrival int64
}

// SimJobResult is one job's simulated schedule.
type SimJobResult struct {
	Name    string `json:"name"`
	PEs     int    `json:"pes"`
	Base    int    `json:"base"`
	Arrival int64  `json:"arrival"`
	Start   int64  `json:"start"`
	Finish  int64  `json:"finish"`
	// Wait is Start - Arrival: the wait-for-partition time.
	Wait int64 `json:"wait"`
}

// SimResult summarizes the schedule of a job set.
type SimResult struct {
	Jobs []SimJobResult `json:"jobs"`
	// Makespan is the finish time of the last job.
	Makespan int64 `json:"makespan"`
	// BusyPECycles sums PEs*Cycles over the jobs: the useful work.
	BusyPECycles int64 `json:"busy_pe_cycles"`
	// Utilization is BusyPECycles over the machine's capacity during
	// the makespan.
	Utilization float64 `json:"utilization"`
	MeanWait    float64 `json:"mean_wait"`
	MaxWait     int64   `json:"max_wait"`
	// PeakFragmentation is the worst external fragmentation observed
	// at a scheduling point where work was left waiting.
	PeakFragmentation float64 `json:"peak_fragmentation"`
}

// Simulate schedules jobs onto a totalPEs machine with Pick and
// returns the resulting timeline. Fully deterministic: ties in time
// break by submission order, and allocation always takes the lowest
// free base.
func Simulate(totalPEs int, jobs []SimJob) (SimResult, error) {
	buddy, err := NewBuddy(totalPEs)
	if err != nil {
		return SimResult{}, err
	}
	for _, j := range jobs {
		if !ValidPEs(j.PEs, totalPEs) {
			return SimResult{}, fmt.Errorf("partition: job %q wants %d PEs on a %d-PE machine", j.Name, j.PEs, totalPEs)
		}
		if j.Cycles < 0 || j.Arrival < 0 {
			return SimResult{}, fmt.Errorf("partition: job %q has negative cycles or arrival", j.Name)
		}
	}

	// Arrival order: by time, then submission order.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})

	type running struct {
		idx    int
		base   int
		finish int64
	}
	res := SimResult{Jobs: make([]SimJobResult, len(jobs))}
	var (
		pending []int // job indices in arrival order
		active  []running
		next    = 0 // next entry of order to arrive
		now     int64
	)
	for next < len(order) || len(pending) > 0 || len(active) > 0 {
		// Advance to the next event: an arrival or a completion.
		var t int64
		have := false
		if next < len(order) {
			t, have = jobs[order[next]].Arrival, true
		}
		for _, r := range active {
			if !have || r.finish < t {
				t, have = r.finish, true
			}
		}
		if !have {
			// Pending jobs but no arrivals or completions left: the
			// remainder can never fit (validated sizes always fit an
			// empty machine, so this means a bug, not a job set).
			return res, fmt.Errorf("partition: scheduler stalled with %d jobs pending", len(pending))
		}
		now = t

		// Completions first (free before place), in submission order.
		sort.SliceStable(active, func(a, b int) bool { return active[a].idx < active[b].idx })
		kept := active[:0]
		for _, r := range active {
			if r.finish == now {
				if err := buddy.Free(r.base); err != nil {
					return res, err
				}
			} else {
				kept = append(kept, r)
			}
		}
		active = kept

		// Arrivals at this instant.
		for next < len(order) && jobs[order[next]].Arrival == now {
			pending = append(pending, order[next])
			next++
		}

		// Place as many pending jobs as the free state allows.
		sizes := make([]int, len(pending))
		for {
			sizes = sizes[:len(pending)]
			for i, idx := range pending {
				sizes[i] = jobs[idx].PEs
			}
			pick := Pick(buddy, sizes)
			if pick < 0 {
				break
			}
			idx := pending[pick]
			base, err := buddy.Alloc(jobs[idx].PEs)
			if err != nil {
				return res, err
			}
			pending = append(pending[:pick], pending[pick+1:]...)
			j := jobs[idx]
			finish := now + j.Cycles
			active = append(active, running{idx: idx, base: base, finish: finish})
			res.Jobs[idx] = SimJobResult{
				Name: j.Name, PEs: j.PEs, Base: base,
				Arrival: j.Arrival, Start: now, Finish: finish,
				Wait: now - j.Arrival,
			}
			if finish > res.Makespan {
				res.Makespan = finish
			}
		}
		if len(pending) > 0 {
			if frag := buddy.Fragmentation(); frag > res.PeakFragmentation {
				res.PeakFragmentation = frag
			}
		}
	}

	var waitSum int64
	for i, j := range jobs {
		res.BusyPECycles += int64(j.PEs) * j.Cycles
		waitSum += res.Jobs[i].Wait
		if res.Jobs[i].Wait > res.MaxWait {
			res.MaxWait = res.Jobs[i].Wait
		}
	}
	if len(jobs) > 0 {
		res.MeanWait = float64(waitSum) / float64(len(jobs))
	}
	if res.Makespan > 0 {
		res.Utilization = float64(res.BusyPECycles) / (float64(totalPEs) * float64(res.Makespan))
	}
	return res, nil
}

// SerialMakespan is the whole-machine baseline the co-scheduling
// sweep compares against: every job runs alone, in arrival order,
// each starting when it has arrived and the machine is idle.
func SerialMakespan(jobs []SimJob) int64 {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})
	var now int64
	for _, idx := range order {
		j := jobs[idx]
		if j.Arrival > now {
			now = j.Arrival
		}
		now += j.Cycles
	}
	return now
}
