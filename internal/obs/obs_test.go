package obs

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestKindSet(t *testing.T) {
	s := Kinds(KindInstr, KindBarrierRelease)
	if !s.Has(KindInstr) || !s.Has(KindBarrierRelease) {
		t.Fatalf("set %b missing its own members", s)
	}
	if s.Has(KindNetSend) {
		t.Fatalf("set %b has a member it was not given", s)
	}
	for k := Kind(0); k < NumKinds; k++ {
		if !AllKinds.Has(k) {
			t.Fatalf("AllKinds missing %v", k)
		}
		if k.String() == "kind(?)" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestUnitRegistrationIsIdempotent(t *testing.T) {
	r := New(Config{})
	a := r.Unit("PE0")
	b := r.Unit("PE1")
	if a == b {
		t.Fatalf("distinct names got the same id %d", a)
	}
	if again := r.Unit("PE0"); again != a {
		t.Fatalf("re-registering PE0: got %d, want %d", again, a)
	}
	if n := len(r.Units()); n != 2 {
		t.Fatalf("got %d units, want 2", n)
	}
}

func TestEventFilterAndRing(t *testing.T) {
	r := New(Config{Events: Kinds(KindInstr), Limit: 3})
	u := r.Unit("PE0")
	for i := 0; i < 5; i++ {
		r.Emit(u, Event{Kind: KindInstr, Clock: int64(10 * i), PC: int32(i)})
	}
	r.Emit(u, Event{Kind: KindNetSend, Clock: 999}) // filtered out
	got := r.Units()[0].Events()
	if len(got) != 3 {
		t.Fatalf("ring kept %d events, want 3", len(got))
	}
	for i, ev := range got {
		if want := int32(i + 2); ev.PC != want {
			t.Fatalf("event %d: pc %d, want %d (oldest-first after eviction)", i, ev.PC, want)
		}
	}
	if d := r.Units()[0].Dropped(); d != 2 {
		t.Fatalf("dropped %d, want 2", d)
	}
}

func TestMergedOrdersByClockUnitSeq(t *testing.T) {
	r := New(Config{Events: AllKinds})
	p0 := r.Unit("PE0")
	p1 := r.Unit("PE1")
	// Emit out of timestamp order across units, with ties at clock 50.
	r.Emit(p1, Event{Kind: KindInstr, Clock: 50})
	r.Emit(p1, Event{Kind: KindNetSend, Clock: 50})
	r.Emit(p0, Event{Kind: KindInstr, Clock: 70})
	r.Emit(p0, Event{Kind: KindInstr, Clock: 50})
	r.Emit(p0, Event{Kind: KindInstr, Clock: 20})
	got := r.Merged()
	type key struct {
		clock int64
		unit  int32
		seq   int64
	}
	var keys []key
	for _, ev := range got {
		keys = append(keys, key{ev.Clock, ev.Unit, ev.Seq})
	}
	want := []key{
		{20, 0, 2},
		{50, 0, 1},
		{50, 1, 0},
		{50, 1, 1},
		{70, 0, 0},
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("merged order %v, want %v", keys, want)
	}
}

// TestMergedMatchesSort: the k-way merge equals one sort of every
// retained event, for random recorders mixing clock-ordered units
// (with runs of equal clocks), out-of-order units, empty units and
// wrapped ring buffers.
func TestMergedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		limit := 0
		if trial%3 == 0 {
			limit = 1 + rng.Intn(40)
		}
		r := New(Config{Events: AllKinds, Limit: limit})
		var all []Event
		for u := rng.Intn(12); u >= 0; u-- {
			id := r.Unit(string(rune('A' + u)))
			ordered := rng.Intn(3) > 0
			clock := int64(rng.Intn(50))
			for e := rng.Intn(60); e > 0; e-- {
				if ordered {
					clock += int64(rng.Intn(3))
				} else {
					clock = int64(rng.Intn(200))
				}
				r.Emit(id, Event{Kind: KindInstr, Clock: clock})
			}
		}
		for _, u := range r.Units() {
			all = append(all, u.Events()...)
		}
		slices.SortFunc(all, compareEvents)
		if got := r.Merged(); !reflect.DeepEqual(got, all) && len(all) > 0 {
			t.Fatalf("trial %d: merged stream differs from the sorted one", trial)
		}
	}
}

func TestFinishMirrorsTotalsIntoRegistry(t *testing.T) {
	r := New(Config{Metrics: true})
	u := r.Unit("PE0")
	r.Finish(u, 1234, 56)
	unit := r.Units()[0]
	if unit.Clock != 1234 || unit.Instrs != 56 {
		t.Fatalf("totals %d/%d, want 1234/56", unit.Clock, unit.Instrs)
	}
	if c := unit.Reg.Counter("cycles"); c != 1234 {
		t.Fatalf("cycles counter %d, want 1234", c)
	}
	if c := unit.Reg.Counter("instrs"); c != 56 {
		t.Fatalf("instrs counter %d, want 56", c)
	}
}

func TestDetachedEventsStillFeedMetrics(t *testing.T) {
	// Metrics-only configuration: no events retained, registries live.
	r := New(Config{Metrics: true})
	u := r.Unit("PE0")
	r.Emit(u, Event{Kind: KindBarrierRelease, Clock: 100, Dur: 40, Arg: 1})
	if got := r.Units()[0].Events(); len(got) != 0 {
		t.Fatalf("retained %d events with a zero kind set", len(got))
	}
	if c := r.Metrics().Counter("wait_barrier_cycles"); c != 40 {
		t.Fatalf("wait_barrier_cycles %d, want 40", c)
	}
}
