// Package fetchunit models the PASM Micro Controller's Fetch Unit:
// the finite FIFO queue of SIMD instruction words, the controller that
// moves instruction blocks from the Fetch Unit RAM into the queue word
// by word, and the mask register snapshotted with every enqueued word.
//
// The queue is the architectural feature behind two of the paper's
// headline observations:
//
//   - Control-flow overlap: the MC CPU writes one control word per
//     block and immediately proceeds with loop bookkeeping while the
//     controller streams the block into the queue and the PEs drain
//     it. While the queue stays non-empty the PEs never see control
//     flow at all, which is how SIMD efficiency can exceed 1
//     ("superlinear speed-up", paper Section 10).
//   - Finite depth: when the queue fills, the controller stalls, and
//     a new control word stalls the MC until the controller is free.
//
// The queue stores *timestamps*, not data: the PASM simulator computes
// when each word is enqueued and dequeued, and this package does the
// occupancy arithmetic exactly, word by word.
package fetchunit

import "fmt"

// Queue is the timed Fetch Unit queue of one Micro Controller.
type Queue struct {
	depth      int   // capacity in 16-bit words
	wordCycles int64 // controller cycles to move one word into the queue

	ctrlFree     int64   // when the controller finishes its current block
	enqueuedWord int64   // total words whose enqueue has been scheduled
	consumedWord int64   // total words recorded as dequeued
	freeAt       []int64 // ring: dequeue time of word w at freeAt[w%depth]
	enqSlot      int     // enqueuedWord % depth (ring index kept incrementally)
	consSlot     int     // consumedWord % depth

	// MaxOccupancy tracks the high-water mark of words in flight at
	// enqueue time (observability for the queue-depth ablation).
	MaxOccupancy int
	// FullStalls counts words whose enqueue waited for a slot, and
	// StallCycles the total controller time lost to the full queue —
	// the back-pressure that bounds the MC's run-ahead.
	FullStalls  int64
	StallCycles int64

	// OnEnqueue, when non-nil, observes every completed enqueue: the
	// issue time, the time the last word entered the queue, the word
	// count, and the resulting occupancy. OnConsume observes every
	// dequeue with its release time, word count, and remaining
	// occupancy. Nil hooks cost one pointer test per call.
	OnEnqueue func(issue, ready int64, words, pending int)
	OnConsume func(t int64, words, pending int)
}

// NewQueue returns a queue of the given capacity in words. wordCycles
// is the controller's per-word transfer time.
func NewQueue(depth int, wordCycles int64) (*Queue, error) {
	if depth < 1 {
		return nil, fmt.Errorf("fetchunit: depth %d < 1", depth)
	}
	if wordCycles < 1 {
		return nil, fmt.Errorf("fetchunit: wordCycles %d < 1", wordCycles)
	}
	return &Queue{
		depth:      depth,
		wordCycles: wordCycles,
		freeAt:     make([]int64, depth),
	}, nil
}

// Depth returns the queue capacity in words.
func (q *Queue) Depth() int { return q.depth }

// CtrlFree returns the earliest time the Fetch Unit controller can
// accept a new control word (i.e. when it finishes streaming the
// current block). An MC that executes BCAST before this time stalls.
func (q *Queue) CtrlFree() int64 { return q.ctrlFree }

// Reset clears all queue state.
func (q *Queue) Reset() {
	q.ctrlFree = 0
	q.enqueuedWord = 0
	q.consumedWord = 0
	q.enqSlot = 0
	q.consSlot = 0
	q.MaxOccupancy = 0
	q.FullStalls = 0
	q.StallCycles = 0
	for i := range q.freeAt {
		q.freeAt[i] = 0
	}
}

// Enqueue schedules `words` instruction words, the controller starting
// no earlier than issue. It returns the time the last word is in the
// queue (the entry's ready time). Word w cannot enter until word
// w-depth has been dequeued; the caller must therefore have consumed
// far enough ahead, which the PASM executor guarantees by processing
// entries strictly in FIFO order. Entries larger than the queue
// capacity can never fit and are an error.
func (q *Queue) Enqueue(issue int64, words int) (ready int64, err error) {
	if words < 1 {
		return 0, fmt.Errorf("fetchunit: enqueue of %d words", words)
	}
	if words > q.depth {
		return 0, fmt.Errorf("fetchunit: entry of %d words exceeds queue depth %d", words, q.depth)
	}
	t := q.ctrlFree
	if issue > t {
		t = issue
	}
	for i := 0; i < words; i++ {
		w := q.enqueuedWord
		if w-int64(q.depth) >= q.consumedWord {
			return 0, fmt.Errorf("fetchunit: word %d enqueued before word %d consumed (executor ordering bug)", w, w-int64(q.depth))
		}
		if w >= int64(q.depth) {
			// (w-depth)%depth == w%depth == enqSlot: the slot this word
			// reuses is the one its displaced predecessor occupied.
			if f := q.freeAt[q.enqSlot]; f > t {
				q.FullStalls++
				q.StallCycles += f - t
				t = f // queue full: controller stalls for a slot
			}
		}
		t += q.wordCycles
		q.enqueuedWord = w + 1
		if q.enqSlot++; q.enqSlot == q.depth {
			q.enqSlot = 0
		}
	}
	if occ := int(q.enqueuedWord - q.consumedWord); occ > q.MaxOccupancy {
		q.MaxOccupancy = occ
	}
	q.ctrlFree = t
	if q.OnEnqueue != nil {
		q.OnEnqueue(issue, t, words, q.Pending())
	}
	return t, nil
}

// Consume records that the oldest `words` words were dequeued at time
// t (the release time of the instruction they form).
func (q *Queue) Consume(words int, t int64) error {
	if q.consumedWord+int64(words) > q.enqueuedWord {
		return fmt.Errorf("fetchunit: consuming %d words with only %d enqueued",
			words, q.enqueuedWord-q.consumedWord)
	}
	for i := 0; i < words; i++ {
		q.freeAt[q.consSlot] = t
		q.consumedWord++
		if q.consSlot++; q.consSlot == q.depth {
			q.consSlot = 0
		}
	}
	if q.OnConsume != nil {
		q.OnConsume(t, words, q.Pending())
	}
	return nil
}

// LockstepRun streams n identical SIMD instructions of `words` words
// each through the queue, as the PASM lockstep executor does for every
// broadcast instruction (n = 1) and every fused run of identical
// MULUs: each member is enqueued at issue, released at the later of
// its ready time and its request time, and consumed at that release
// (what the PEs then execute never touches the queue). The
// first member's request time is firstReq; each later member's is the
// previous release plus step (the group's per-member cost: the slowest
// PE requests again step cycles after a release). A negative firstReq
// means no PE requests, and every member releases when ready. It
// returns the last release and starve, the cycles requests waited for
// words still being enqueued, and leaves the queue exactly as the n
// Enqueue+Consume pairs would.
//
// The executor consumes each instruction before enqueuing the next, so
// on entry no word is pending and the enqueue and consume slots
// coincide: the slot each word reuses is the one its own consume then
// overwrites. The replay therefore walks one slot index. Words pending
// on entry, an empty run and an entry that cannot fit are errors.
// Observer hooks see each member's enqueue and consume with the
// arguments Enqueue and Consume pass; the queue's own fields are
// written back once, after the last member.
func (q *Queue) LockstepRun(issue int64, words, n int, firstReq, step int64) (release, starve int64, err error) {
	switch {
	case n < 1:
		return 0, 0, fmt.Errorf("fetchunit: lockstep run of %d instructions", n)
	case words < 1 || words > q.depth:
		return 0, 0, fmt.Errorf("fetchunit: lockstep entry of %d words in a queue of depth %d", words, q.depth)
	case q.Pending() != 0:
		return 0, 0, fmt.Errorf("fetchunit: lockstep run with %d words pending (executor ordering bug)", q.Pending())
	}
	t := q.ctrlFree
	w := q.enqueuedWord
	slot := q.enqSlot
	depth := int64(q.depth)
	req := firstReq
	for i := 0; i < n; i++ {
		if issue > t {
			t = issue
		}
		s := slot
		for j := 0; j < words; j++ {
			if w >= depth {
				if f := q.freeAt[s]; f > t {
					q.FullStalls++
					q.StallCycles += f - t
					t = f
				}
			}
			t += q.wordCycles
			w++
			if s++; s == q.depth {
				s = 0
			}
		}
		if q.OnEnqueue != nil {
			q.OnEnqueue(issue, t, words, words)
		}
		release = releaseAt(t, req, &starve)
		for j := 0; j < words; j++ {
			q.freeAt[slot] = release
			if slot++; slot == q.depth {
				slot = 0
			}
		}
		if q.OnConsume != nil {
			q.OnConsume(release, words, 0)
		}
		if firstReq >= 0 {
			req = release + step
		}
	}
	q.ctrlFree = t
	q.enqueuedWord, q.consumedWord = w, w
	q.enqSlot, q.consSlot = slot, slot
	if words > q.MaxOccupancy {
		q.MaxOccupancy = words
	}
	return release, starve, nil
}

// releaseAt is the lockstep release rule for one instruction: it
// leaves the queue at the later of its ready time and the group's
// latest request (req < 0: no PE requests). When the requests came
// first, the PEs starved until the words were in the queue; that wait
// is added to *starve.
func releaseAt(ready, req int64, starve *int64) int64 {
	if req > ready {
		return req
	}
	if req >= 0 {
		*starve += ready - req
	}
	return ready
}

// Pending returns the words currently in flight (enqueued, not yet
// consumed).
func (q *Queue) Pending() int { return int(q.enqueuedWord - q.consumedWord) }

// Mask is the Fetch Unit mask register: bit k enables PE k of the MC's
// group. The register value is conceptually enqueued with every word;
// the simulator snapshots it per entry.
type Mask uint32

// AllEnabled returns a mask with the low n bits set.
func AllEnabled(n int) Mask { return Mask(1)<<n - 1 }

// Enabled reports whether PE k participates.
func (m Mask) Enabled(k int) bool { return m>>k&1 != 0 }

// Count returns the number of enabled PEs.
func (m Mask) Count() int {
	c := 0
	for v := m; v != 0; v &= v - 1 {
		c++
	}
	return c
}
