package service

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// The token bucket is pure state + caller-supplied clock, so its
// contract is checked as properties over randomized schedules driven
// by a fake clock (no sleeps, no wall time):
//
//  1. Rate bound: over any admit schedule, a client is admitted at
//     most burst + rate·elapsed times — the bucket never over-admits.
//  2. Determinism: the same schedule against a fresh bucket gives the
//     same admit/refuse sequence.
//  3. Starvation-free refill: after a refusal, backing off exactly the
//     returned Retry-After always yields a token, no matter what other
//     clients do in between.

// tickClock is a manually advanced time source.
type tickClock struct{ t time.Time }

func newTickClock() *tickClock {
	return &tickClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *tickClock) advance(d time.Duration) time.Time {
	c.t = c.t.Add(d)
	return c.t
}

// schedule derives a randomized admit schedule from a seed: a list of
// (gap, client) pairs replayed against the bucket.
type step struct {
	gap    time.Duration
	client string
}

func scheduleFrom(seed int64, n int) []step {
	rng := rand.New(rand.NewSource(seed))
	clients := []string{"a", "b", "c"}
	steps := make([]step, n)
	for i := range steps {
		// Gaps from 0 (burst abuse) to ~300ms, biased short.
		gap := time.Duration(rng.Intn(4)) * time.Duration(rng.Intn(100)) * time.Millisecond
		steps[i] = step{gap: gap, client: clients[rng.Intn(len(clients))]}
	}
	return steps
}

func TestBucketNeverExceedsRatePlusBurst(t *testing.T) {
	prop := func(seed int64) bool {
		const rate, burst = 20.0, 5.0
		b := newBuckets(rate, burst, 0)
		clk := newTickClock()
		start := clk.t
		admitted := map[string]int{}
		for _, s := range scheduleFrom(seed, 400) {
			now := clk.advance(s.gap)
			if ok, _ := b.admit(s.client, now); ok {
				admitted[s.client]++
			}
			elapsed := now.Sub(start).Seconds()
			// Small epsilon for float refill accumulation.
			bound := burst + rate*elapsed + 1e-6
			if float64(admitted[s.client]) > bound {
				t.Logf("seed %d: client %s admitted %d > bound %.3f after %.3fs",
					seed, s.client, admitted[s.client], bound, elapsed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketDeterministic(t *testing.T) {
	prop := func(seed int64) bool {
		run := func() []bool {
			b := newBuckets(7, 3, 0)
			clk := newTickClock()
			var out []bool
			for _, s := range scheduleFrom(seed, 200) {
				ok, _ := b.admit(s.client, clk.advance(s.gap))
				out = append(out, ok)
			}
			return out
		}
		a, bb := run(), run()
		for i := range a {
			if a[i] != bb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketRefillStarvationFree(t *testing.T) {
	prop := func(seed int64) bool {
		b := newBuckets(50, 2, 0)
		clk := newTickClock()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			client := string(rune('a' + rng.Intn(3)))
			ok, wait := b.admit(client, clk.advance(time.Duration(rng.Intn(10))*time.Millisecond))
			if ok {
				continue
			}
			// Noise from other clients must not affect this client's
			// refill (buckets are per-client state).
			for j := 0; j < rng.Intn(4); j++ {
				b.admit("noise", clk.t)
			}
			if ok2, _ := b.admit(client, clk.advance(wait)); !ok2 {
				t.Logf("seed %d: client %s refused after honoring Retry-After %s", seed, client, wait)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketNewClientGetsBurst(t *testing.T) {
	b := newBuckets(1, 4, 0)
	clk := newTickClock()
	for i := 0; i < 4; i++ {
		if ok, _ := b.admit("fresh", clk.t); !ok {
			t.Fatalf("admit %d of burst 4 refused", i)
		}
	}
	if ok, wait := b.admit("fresh", clk.t); ok || wait <= 0 {
		t.Fatalf("burst exhausted: want refusal with positive wait, got ok=%v wait=%s", ok, wait)
	}
}

func TestBucketEviction(t *testing.T) {
	b := newBuckets(1, 1, 2)
	clk := newTickClock()
	b.admit("one", clk.t)
	b.admit("two", clk.t)
	b.admit("three", clk.t) // evicts "one"
	if n := b.clients(); n != 2 {
		t.Fatalf("clients = %d, want 2 after eviction", n)
	}
	// "one" returns as a fresh client: full burst again (more
	// permissive, never a wrongful reject).
	if ok, _ := b.admit("one", clk.t); !ok {
		t.Fatal("evicted client should restart with full burst")
	}
}

func TestBucketDisabled(t *testing.T) {
	if b := newBuckets(0, 10, 0); b != nil {
		t.Fatal("rate 0 should disable admission control (nil buckets)")
	}
}

func TestNewBucketsGuards(t *testing.T) {
	if newBuckets(0, 8, 100) != nil {
		t.Error("rate 0 should disable admission (nil table)")
	}
	b := newBuckets(2, 0, 0)
	if b == nil || b.burst != 1 || b.maxClients != 4096 {
		t.Errorf("degenerate burst/maxClients should clamp, got %+v", b)
	}
}

func TestPushOnClosedQueuePanics(t *testing.T) {
	q := newSchedQueue(SchedFCFS, starveLimit)
	q.Close()
	defer func() {
		if recover() == nil {
			t.Error("push on a closed queue should panic")
		}
	}()
	q.Push(mkJob(0, 0, 1))
}
