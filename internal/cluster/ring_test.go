package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/cache"
)

func testKey(i int) cache.Key {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return cache.Key(sha256.Sum256(b[:]))
}

// TestRingOrderCoversAll: every key's order lists each replica exactly
// once, owner first, and is deterministic.
func TestRingOrderCoversAll(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	r := newRing(names)
	for i := 0; i < 100; i++ {
		k := testKey(i)
		ord := r.order(k)
		if len(ord) != len(names) {
			t.Fatalf("key %d: order len %d, want %d", i, len(ord), len(names))
		}
		seen := map[int]bool{}
		for _, idx := range ord {
			if seen[idx] {
				t.Fatalf("key %d: replica %d twice in %v", i, idx, ord)
			}
			seen[idx] = true
		}
		ord2 := newRing(names).order(k)
		for j := range ord {
			if ord[j] != ord2[j] {
				t.Fatalf("key %d: order not deterministic: %v vs %v", i, ord, ord2)
			}
		}
	}
}

// TestRingDistribution: with vnodes, no replica owns a degenerate
// share of the keyspace.
func TestRingDistribution(t *testing.T) {
	names := []string{"r0", "r1", "r2"}
	r := newRing(names)
	counts := make([]int, len(names))
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.order(testKey(i))[0]]++
	}
	for i, c := range counts {
		if c < keys/10 {
			t.Errorf("replica %s owns only %d/%d keys — distribution degenerate", names[i], c, keys)
		}
	}
}

// TestRingStability: removing one replica remaps only the keys it
// owned; everyone else's keys keep their owner. This is the property
// that makes replica-local caches survive membership changes.
func TestRingStability(t *testing.T) {
	full := []string{"a", "b", "c"}
	without := []string{"a", "b"} // "c" removed
	rf, rw := newRing(full), newRing(without)
	moved, kept := 0, 0
	for i := 0; i < 1000; i++ {
		k := testKey(i)
		of := full[rf.order(k)[0]]
		ow := without[rw.order(k)[0]]
		if of == "c" {
			moved++
			continue // this key had to move
		}
		if of != ow {
			t.Fatalf("key %d: owner changed %s -> %s though %q was untouched", i, of, ow, of)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split: moved=%d kept=%d", moved, kept)
	}
}

// TestRingFailoverOrder: a key's failover order equals the owner order
// of the ring with the owner deleted — so consistent failover sends a
// key to the same secondary that would own it after real membership
// loss.
func TestRingFailoverOrder(t *testing.T) {
	names := []string{"a", "b", "c"}
	r := newRing(names)
	for i := 0; i < 200; i++ {
		k := testKey(i)
		ord := r.order(k)
		rest := make([]string, 0, 2)
		for _, idx := range names {
			if idx != names[ord[0]] {
				rest = append(rest, idx)
			}
		}
		sub := newRing(rest)
		want := rest[sub.order(k)[0]]
		got := names[ord[1]]
		if got != want {
			t.Fatalf("key %d: failover target %s, but post-removal owner is %s", i, got, want)
		}
	}
}
