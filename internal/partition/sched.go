package partition

// Fitter answers fit probes against the current free state; both
// *Buddy and *Machine implement it.
type Fitter interface {
	// FitOrder returns the order of the smallest free block that can
	// serve a partition of pes PEs, and whether one exists.
	FitOrder(pes int) (int, bool)
}

// Pick returns the index into pending (partition sizes in arrival
// order) of the job a partition scheduler starts next, or -1 when
// nothing pending fits. The rule is first fit: the earliest-arrived
// job that fits, i.e. FCFS with backfill — later small jobs run ahead
// of a large job that cannot be placed yet. It is a deterministic
// function of the arrival order and the allocator's free state, so a
// given job storm schedules identically on every run.
func Pick(f Fitter, pending []int) int {
	for i, pes := range pending {
		if _, ok := f.FitOrder(pes); ok {
			return i
		}
	}
	return -1
}
