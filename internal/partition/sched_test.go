package partition

import "testing"

// fitState builds a buddy with the given blocks held, for driving
// Pick against a known free state.
func fitState(t *testing.T, total int, hold []int) *Buddy {
	t.Helper()
	b := mustBuddy(t, total)
	for _, pes := range hold {
		mustAlloc(t, b, pes)
	}
	return b
}

func TestPickFirstFit(t *testing.T) {
	// Free: 8..15 (8 PEs). First fit takes the earliest job that
	// fits, backfilling past the 16-PE job at the head.
	b := fitState(t, 16, []int{8})
	pending := []int{16, 4, 2, 8}
	if got := Pick(b, pending); got != 1 {
		t.Errorf("Pick = %d, want 1 (earliest fitting job)", got)
	}
	if got := Pick(b, []int{16}); got != -1 {
		t.Errorf("Pick = %d, want -1 when nothing fits", got)
	}
}
