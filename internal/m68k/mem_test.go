package m68k

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// flatMemory is the reference model the touch-backed Memory must
// match: every byte of the logical size allocated and zeroed up front.
type flatMemory []byte

func (f flatMemory) access(addr uint32, sz Size) error {
	if sz != Byte && addr&1 != 0 {
		return &AddressError{Addr: addr, Size: sz}
	}
	end := uint64(addr) + uint64(sz.Bytes())
	if end > uint64(len(f)) {
		return &BoundsError{Addr: addr, Size: sz}
	}
	return nil
}

func (f flatMemory) read(addr uint32, sz Size) (uint32, error) {
	if err := f.access(addr, sz); err != nil {
		return 0, err
	}
	var v uint32
	for i := uint32(0); i < sz.Bytes(); i++ {
		v = v<<8 | uint32(f[addr+i])
	}
	return v, nil
}

func (f flatMemory) write(addr uint32, sz Size, val uint32) error {
	if err := f.access(addr, sz); err != nil {
		return err
	}
	for i := sz.Bytes(); i > 0; i-- {
		f[addr+i-1] = byte(val)
		val >>= 8
	}
	return nil
}

// sameErr reports whether two access errors are the same: both nil, or
// identical messages (which name the kind, size and address).
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func TestMemoryUntouchedReadsZero(t *testing.T) {
	m := NewMemory(1 << 20)
	if m.Size() != 1<<20 {
		t.Fatalf("Size = %d, want %d", m.Size(), 1<<20)
	}
	if len(m.data) != 0 {
		t.Fatalf("fresh memory backs %d bytes, want 0", len(m.data))
	}
	for _, a := range []struct {
		addr uint32
		sz   Size
	}{{0, Byte}, {0, Long}, {0x1234, Word}, {1<<20 - 4, Long}, {1<<20 - 2, Word}, {1<<20 - 1, Byte}} {
		if v, err := m.Read(a.addr, a.sz); err != nil || v != 0 {
			t.Errorf("Read($%X, %s) = %d, %v; want 0, nil", a.addr, a.sz, v, err)
		}
	}
	if m.Size() != 1<<20 {
		t.Errorf("Size changed to %d after reads", m.Size())
	}
}

// TestMemoryErrorsAtLogicalEdges pins the error addresses: bounds and
// alignment are judged against the logical size, never the backing,
// and a failed access backs nothing.
func TestMemoryErrorsAtLogicalEdges(t *testing.T) {
	for _, size := range []uint32{1 << 20, 6000} {
		cases := []struct {
			addr uint32
			sz   Size
			want string // "", "address", "bounds"
		}{
			{size, Byte, "bounds"},
			{size - 1, Byte, ""},
			{size - 1, Word, "address"},
			{size - 2, Word, ""},
			{size - 2, Long, "bounds"},
			{size - 4, Long, ""},
			{size, Word, "bounds"},
			{0xFFFFFFFE, Word, "bounds"}, // addr+2 wraps to 0
			{0xFFFFFFFC, Long, "bounds"},
			{0xFFFFFFFF, Byte, "bounds"},
			{3, Long, "address"},
			{1, Word, "address"},
			{0x1001, Word, "address"},
		}
		for _, tc := range cases {
			for _, write := range []bool{false, true} {
				m := NewMemory(size)
				var err error
				if write {
					err = m.Write(tc.addr, tc.sz, 0xFFFFFFFF)
				} else {
					_, err = m.Read(tc.addr, tc.sz)
				}
				var ae *AddressError
				var be *BoundsError
				got := ""
				switch {
				case errors.As(err, &ae):
					got = "address"
				case errors.As(err, &be):
					got = "bounds"
				case err != nil:
					got = err.Error()
				}
				if got != tc.want {
					t.Errorf("size %d write=%v $%X %s: error %q, want %q", size, write, tc.addr, tc.sz, got, tc.want)
				}
				if err != nil && len(m.data) != 0 {
					t.Errorf("size %d $%X %s: failed access backed %d bytes", size, tc.addr, tc.sz, len(m.data))
				}
			}
		}
	}
}

// TestMemoryMatchesFlatModel drives the touch-backed memory and a flat
// reference with one deterministic stream of reads and writes clustered
// around every backing edge and the logical end; values and errors
// must agree access for access.
func TestMemoryMatchesFlatModel(t *testing.T) {
	for _, size := range []uint32{1 << 16, 6000, 4096, 100} {
		m := NewMemory(size)
		ref := make(flatMemory, size)
		rng := rand.New(rand.NewSource(int64(size)))
		edges := []uint32{0, size}
		for e := uint32(minBacking); e < size; e *= 2 {
			edges = append(edges, e)
		}
		for i := 0; i < 20000; i++ {
			addr := edges[rng.Intn(len(edges))] + uint32(rng.Intn(17)) - 8
			sz := []Size{Byte, Word, Long}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				val := rng.Uint32()
				err, want := m.Write(addr, sz, val), ref.write(addr, sz, val)
				if !sameErr(err, want) {
					t.Fatalf("size %d: Write($%X, %s) = %v, flat model %v", size, addr, sz, err, want)
				}
			} else {
				v, err := m.Read(addr, sz)
				w, want := ref.read(addr, sz)
				if v != w || !sameErr(err, want) {
					t.Fatalf("size %d: Read($%X, %s) = %d, %v; flat model %d, %v", size, addr, sz, v, err, w, want)
				}
			}
			if uint32(len(m.data)) > size {
				t.Fatalf("size %d: backing %d exceeds logical size", size, len(m.data))
			}
		}
	}
}

func TestMemoryWordsAcrossBackingEdge(t *testing.T) {
	m := NewMemory(1 << 20)
	if err := m.WriteWords(minBacking-4, []uint16{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if len(m.data) != 2*minBacking {
		t.Errorf("backing = %d after a write across the edge, want %d", len(m.data), 2*minBacking)
	}
	got, err := m.ReadWords(minBacking-8, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint16{0, 0, 1, 2, 3, 4, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReadWords = %v, want %v", got, want)
		}
	}
	// A read that starts inside the backing and runs past it.
	got, err = m.ReadWords(2*minBacking-4, 4)
	if err != nil || got[0]|got[1]|got[2]|got[3] != 0 {
		t.Fatalf("ReadWords across the grown edge = %v, %v; want zeros", got, err)
	}
	// WriteWords past the logical end fails at the first word beyond it.
	if err := m.WriteWords(1<<20-2, []uint16{7, 8}); err == nil {
		t.Error("WriteWords past the logical end succeeded")
	}
	if v, _ := m.Read(1<<20-2, Word); v != 7 {
		t.Errorf("last in-bounds word = %d, want 7", v)
	}
}

func TestMemoryResetIsAllZero(t *testing.T) {
	m := NewMemory(1 << 16)
	m.RefreshPeriod = 100
	m.RefreshStall = 2
	for _, a := range []uint32{0, 0x800, minBacking - 2, 0x7FFE, 1<<16 - 4} {
		if err := m.Write(a, Word, 0xA5A5); err != nil {
			t.Fatal(err)
		}
	}
	m.Penalty(50, 1)
	m.Reset()
	if m.Size() != 1<<16 {
		t.Errorf("Size after Reset = %d", m.Size())
	}
	for a := uint32(0); a < m.Size(); a += 4 {
		if v, _ := m.Read(a, Long); v != 0 {
			t.Fatalf("Read($%X) = %X after Reset, want 0", a, v)
		}
	}
	if p := m.Penalty(0, 0); p != 2 {
		t.Errorf("refresh phase survived Reset: penalty %d, want 2", p)
	}
}

// TestNewMemoryIsConstantSize: a 1 MiB memory costs O(1) bytes until
// a program touches it (the up-front 1 MiB allocation and zeroing per
// PE was most of a short run's host time).
func TestNewMemoryIsConstantSize(t *testing.T) {
	const n = 64
	keep := make([]*Memory, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewMemory(1 << 20)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 1024 {
		t.Errorf("NewMemory(1 MiB) allocates %d bytes, want O(1)", per)
	}
	runtime.KeepAlive(keep)
}
