package m68k

import (
	"testing"
	"testing/quick"
)

// penaltyWalk is refreshRun's oracle: n members walked one Penalty
// call at a time, each costing base cycles plus its fetch penalty.
func penaltyWalk(clock, next, n, base, ws, words, period, stall int64) (int64, int64) {
	m := &Memory{WaitStates: ws, RefreshPeriod: period, RefreshStall: stall, nextRefresh: next}
	for i := int64(0); i < n; i++ {
		clock += base + m.Penalty(clock, words)
	}
	return clock, m.nextRefresh
}

// TestRefreshRunMatchesPenaltyWalk checks the closed form against the
// per-member walk over shapes chosen to hit every branch: refresh off
// (period 0 or negative), zero stall, period at or below the member
// cost (every member stalls), zero-cost members, single-member runs,
// and a refresh deadline behind, at and ahead of the start clock.
func TestRefreshRunMatchesPenaltyWalk(t *testing.T) {
	f := func(sel uint16, rclock, rnext, rn, rbase, rperiod, rstall uint16) bool {
		clock := int64(rclock)
		base := int64(rbase % 120)
		ws, words := int64(sel>>8&3), int64(1+sel>>10&1)
		if sel>>11&7 == 0 {
			base, ws = 0, 0 // zero-cost members
		}
		per := base + ws*words
		var next int64
		switch sel % 3 {
		case 0:
			next = clock - int64(rnext%600) // behind the clock
		case 1:
			next = clock // at it
		default:
			next = clock + 1 + int64(rnext%600) // ahead of it
		}
		n := int64(1 + rn%64)
		if sel>>2&3 == 0 {
			n = 1
		}
		var period int64
		switch sel >> 4 & 3 {
		case 0:
			period = -int64(rperiod % 2) // refresh off: 0 or negative
		case 1:
			period = 1 + int64(rperiod)%max(per, 1) // at or below the member cost
		default:
			period = 1 + int64(rperiod%700)
		}
		stall := int64(rstall % 9)
		if sel>>6&3 == 0 {
			stall = 0
		}
		wc, wn := penaltyWalk(clock, next, n, base, ws, words, period, stall)
		gc, gn := refreshRun(clock, next, n, per, period, stall)
		if gc != wc || gn != wn {
			t.Logf("clock=%d next=%d n=%d per=%d period=%d stall=%d: got (%d, %d), walk (%d, %d)",
				clock, next, n, per, period, stall, gc, gn, wc, wn)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
	// n <= 0 is the identity.
	if c, r := refreshRun(100, 50, 0, 40, 256, 2); c != 100 || r != 50 {
		t.Errorf("n=0: got (%d, %d), want (100, 50)", c, r)
	}
}
