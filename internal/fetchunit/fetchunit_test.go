package fetchunit

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewQueue(0, 4); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := NewQueue(8, 0); err == nil {
		t.Error("wordCycles 0 accepted")
	}
}

func TestEnqueueTiming(t *testing.T) {
	q, _ := NewQueue(64, 4)
	// First block: 3 words issued at t=100 -> last word at 100+12.
	ready, err := q.Enqueue(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ready != 112 {
		t.Errorf("ready = %d, want 112", ready)
	}
	if q.CtrlFree() != 112 {
		t.Errorf("CtrlFree = %d, want 112", q.CtrlFree())
	}
	// Second block issued earlier than the controller frees: chains.
	ready, err = q.Enqueue(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ready != 120 {
		t.Errorf("chained ready = %d, want 120", ready)
	}
	if q.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", q.Pending())
	}
}

func TestQueueFullStallsController(t *testing.T) {
	q, _ := NewQueue(4, 4)
	// Fill the queue: 4 words from t=0, done at 16.
	if _, err := q.Enqueue(0, 4); err != nil {
		t.Fatal(err)
	}
	// Consume the first word only at t=1000.
	if err := q.Consume(1, 1000); err != nil {
		t.Fatal(err)
	}
	// Next word must wait for that dequeue: ready = 1000+4.
	ready, err := q.Enqueue(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ready != 1004 {
		t.Errorf("ready = %d, want 1004 (stalled on full queue)", ready)
	}
}

func TestEnqueueWithoutConsumeIsOrderingError(t *testing.T) {
	q, _ := NewQueue(4, 4)
	if _, err := q.Enqueue(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(0, 1); err == nil {
		t.Error("enqueue past an unconsumed full queue accepted")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	q, _ := NewQueue(4, 4)
	if _, err := q.Enqueue(0, 5); err == nil {
		t.Error("entry larger than queue accepted")
	}
}

func TestConsumeMoreThanEnqueued(t *testing.T) {
	q, _ := NewQueue(8, 4)
	if _, err := q.Enqueue(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := q.Consume(3, 10); err == nil {
		t.Error("over-consume accepted")
	}
}

func TestMaxOccupancy(t *testing.T) {
	q, _ := NewQueue(16, 2)
	q.Enqueue(0, 6)
	q.Consume(2, 100)
	q.Enqueue(0, 4)
	if q.MaxOccupancy != 8 {
		t.Errorf("MaxOccupancy = %d, want 8", q.MaxOccupancy)
	}
}

func TestReset(t *testing.T) {
	q, _ := NewQueue(8, 4)
	q.Enqueue(0, 8)
	q.Consume(8, 500)
	q.Reset()
	if q.Pending() != 0 || q.CtrlFree() != 0 || q.MaxOccupancy != 0 {
		t.Error("Reset left state behind")
	}
	ready, err := q.Enqueue(0, 1)
	if err != nil || ready != 4 {
		t.Errorf("after Reset: ready=%d err=%v", ready, err)
	}
}

// Property: with a very deep queue, ready times are exactly
// issue-or-chain plus wordCycles*words — no spurious stalls.
func TestNoStallWhenDeep(t *testing.T) {
	f := func(blocks []uint8) bool {
		q, _ := NewQueue(1<<20, 3)
		expect := int64(0)
		for _, b := range blocks {
			w := int(b%16) + 1
			ready, err := q.Enqueue(0, w)
			if err != nil {
				return false
			}
			expect += int64(3 * w)
			if ready != expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: FIFO occupancy accounting never goes negative and pending
// equals enqueued minus consumed.
func TestOccupancyInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		q, _ := NewQueue(32, 2)
		enq, cons := 0, 0
		clock := int64(0)
		for _, op := range ops {
			if op%2 == 0 {
				w := int(op/2%8) + 1
				if enq+w-cons > 32 {
					// Must consume first to respect executor ordering.
					q.Consume(enq-cons, clock)
					cons = enq
				}
				if _, err := q.Enqueue(clock, w); err != nil {
					return false
				}
				enq += w
			} else if enq > cons {
				q.Consume(1, clock)
				cons++
			}
			clock += int64(op)
			if q.Pending() != enq-cons {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMask(t *testing.T) {
	m := AllEnabled(4)
	if m != 0xF {
		t.Errorf("AllEnabled(4) = %#x", m)
	}
	if !m.Enabled(0) || !m.Enabled(3) || m.Enabled(4) {
		t.Error("Enabled bits wrong")
	}
	if m.Count() != 4 {
		t.Errorf("Count = %d", m.Count())
	}
	if Mask(0b1010).Count() != 2 {
		t.Error("Count of 0b1010 != 2")
	}
}

// Property: LockstepRun leaves a queue exactly as n per-member
// Enqueue+Consume pairs under the lockstep release rule do, and returns
// the same last release and starve cycles. Queues get a random depth,
// word time and history (optionally ending near full: releases far
// behind the controller, so the replay's enqueues stall), a random
// issue time, no or an early or a late first request, and steps on
// both sides of words*wordCycles (at or below it the starve branch
// fires inside the run). Half the cases attach observer hooks, which
// must see the same calls, with the same arguments, as the pairs'
// hooks do. It also checks
// the closed form of a run's releases: with a step above
// words*wordCycles, and no earlier release later than the run's
// first, every release after the first is the previous one plus step.
func TestLockstepRunMatchesPairs(t *testing.T) {
	f := func(depthB, wcB, wordsB, nB uint8, hist []uint16, issueB uint16, reqB int16, stepB uint16, nearFull, hooks bool) bool {
		depth := 1 + int(depthB%16)
		wc := 1 + int64(wcB%4)
		words := 1 + int(wordsB)%depth
		n := 1 + int(nB%40)
		build := func() *Queue {
			q, _ := NewQueue(depth, wc)
			var clock int64
			for i, h := range hist {
				w := 1 + int(h)%depth
				ready, err := q.Enqueue(clock, w)
				if err != nil {
					t.Fatal(err)
				}
				release := ready + int64(h>>10)
				if nearFull && i >= len(hist)-depth {
					release += 500 + int64(h%97)
				}
				if err := q.Consume(w, release); err != nil {
					t.Fatal(err)
				}
				clock += int64(h % 7)
			}
			return q
		}
		q, ref := build(), build()
		issue := q.CtrlFree() - 40 + int64(issueB%120)
		firstReq := int64(-1)
		if reqB >= 0 {
			firstReq = issue - 60 + int64(reqB%400)
			if firstReq < 0 {
				firstReq = 0
			}
		}
		step := int64(stepB) % (2*int64(words)*wc + 2)
		if stepB&0x8000 != 0 {
			step = int64(stepB % 300)
		}
		var calls, wantCalls [][4]int64
		if hooks {
			record := func(q *Queue, log *[][4]int64) {
				q.OnEnqueue = func(issue, ready int64, words, pending int) {
					*log = append(*log, [4]int64{issue, ready, int64(words), int64(pending)})
				}
				q.OnConsume = func(t int64, words, pending int) {
					*log = append(*log, [4]int64{-1, t, int64(words), int64(pending)})
				}
			}
			record(q, &calls)
			record(ref, &wantCalls)
		}
		release, starve, err := q.LockstepRun(issue, words, n, firstReq, step)
		if err != nil {
			t.Logf("LockstepRun: %v", err)
			return false
		}

		var ringMax int64
		for _, f := range ref.freeAt {
			ringMax = max(ringMax, f)
		}
		var firstRelease, wantRelease, wantStarve int64
		req := firstReq
		for i := 0; i < n; i++ {
			ready, err := ref.Enqueue(issue, words)
			if err != nil {
				t.Fatal(err)
			}
			r := ready
			if req > r {
				r = req
			} else if req >= 0 {
				wantStarve += ready - req
			}
			wantRelease = r
			if i == 0 {
				firstRelease = r
			}
			if err := ref.Consume(words, r); err != nil {
				t.Fatal(err)
			}
			if firstReq >= 0 {
				req = r + step
			}
		}
		// When no earlier instruction released later than the run's
		// first member, a member is in the queue at most
		// words*wordCycles after the previous release, so a slower
		// step sets every later release.
		if firstReq >= 0 && step > int64(words)*wc && ringMax <= firstRelease &&
			wantRelease != firstRelease+int64(n-1)*step {
			t.Logf("releases do not advance by step: first %d, last %d, n %d, step %d", firstRelease, wantRelease, n, step)
			return false
		}
		q.OnEnqueue, q.OnConsume = nil, nil
		ref.OnEnqueue, ref.OnConsume = nil, nil
		if !reflect.DeepEqual(calls, wantCalls) || hooks && len(calls) != 2*n {
			t.Logf("hook calls %v, pairs give %v", calls, wantCalls)
			return false
		}
		if release != wantRelease || starve != wantStarve {
			t.Logf("release/starve %d/%d, pairs give %d/%d", release, starve, wantRelease, wantStarve)
			return false
		}
		if q.MaxOccupancy != ref.MaxOccupancy || q.FullStalls != ref.FullStalls ||
			q.StallCycles != ref.StallCycles || q.CtrlFree() != ref.CtrlFree() || q.Pending() != ref.Pending() {
			t.Logf("counters differ: %+v vs pairs %+v", *q, *ref)
			return false
		}
		next, err1 := q.Enqueue(issue+7, words)
		wantNext, err2 := ref.Enqueue(issue+7, words)
		if err1 != nil || err2 != nil || next != wantNext {
			t.Logf("next enqueue ready %d (%v), pairs %d (%v)", next, err1, wantNext, err2)
			return false
		}
		return reflect.DeepEqual(q, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLockstepRunRejectsBadShapes: an empty run, an empty or oversized
// entry are errors, as they are for Enqueue, and so is a run started
// with words still pending.
func TestLockstepRunRejectsBadShapes(t *testing.T) {
	q, _ := NewQueue(8, 2)
	for _, c := range []struct{ words, n int }{{1, 0}, {0, 3}, {9, 3}} {
		if _, _, err := q.LockstepRun(0, c.words, c.n, 0, 10); err == nil {
			t.Errorf("words=%d n=%d accepted", c.words, c.n)
		}
	}
	if _, err := q.Enqueue(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.LockstepRun(0, 1, 1, 0, 10); err == nil {
		t.Error("run with 2 words pending accepted")
	}
}
