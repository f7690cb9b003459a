// Package partition models the "P" in PASM: a virtual machine of up
// to 1024 processing elements (the paper's target scale) carved into
// independent power-of-two subcube partitions, each running its own
// SIMD/MIMD job.
//
// Three layers build on each other:
//
//   - Buddy: the subcube allocator. Partitions are powers of two,
//     aligned to their own size (base % size == 0), so every
//     allocation is a subcube of the machine's Extra-Stage Cube and
//     the cube-partitioning rule holds by construction. Split and
//     coalesce follow the classic buddy discipline, which also gives
//     exact fragmentation accounting.
//   - Machine: the simulated hardware pool. It owns one physical
//     escube.Network for the whole machine and hands out Leases whose
//     virtual machines route through subcube views of it
//     (escube.Subcube), so a job on PEs 32..63 is cycle-identical to
//     the same job on a standalone 32-PE machine — the identity the
//     differential tests pin.
//   - The first-fit scheduling rule (Pick) and the deterministic
//     co-scheduling simulator (Simulate): the discrete-event model the
//     ext-partition experiment and the partition benchmark run on the
//     simulated clock. pasmd's dispatcher applies the same rule
//     through its scheduler queue (internal/service).
package partition

import (
	"fmt"
	"math/bits"
	"sort"
)

// MaxPEs bounds the machine size: the paper's target PASM scale.
const MaxPEs = 1024

// MinBlock is the smallest allocatable block. The Extra-Stage Cube
// pairs lines at every stage, so the smallest subcube with private
// interchange boxes is a pair; a 1-PE partition still reserves a
// 2-PE block and uses its even line (exactly like a standalone 1-PE
// machine's 2-line network).
const MinBlock = 2

// blockFor returns the block size reserved for a partition of pes
// processing elements.
func blockFor(pes int) int {
	if pes < MinBlock {
		return MinBlock
	}
	return pes
}

// orderOf returns log2(size) for a power of two.
func orderOf(size int) int { return bits.TrailingZeros(uint(size)) }

// ValidPEs reports whether pes is an allocatable partition size for a
// machine of total PEs: a power of two between 1 and total.
func ValidPEs(pes, total int) bool {
	return pes >= 1 && pes <= total && pes&(pes-1) == 0
}

// Buddy is a buddy allocator over a power-of-two pool of processing
// elements. Blocks are powers of two aligned to their own size, so
// every block is a subcube; free buddies coalesce eagerly, so the
// free state is always the minimal set of maximal subcubes.
//
// Not safe for concurrent use; Machine guards it.
type Buddy struct {
	total    int
	maxOrder int
	// free[order] holds the bases of free blocks of 1<<order PEs,
	// sorted ascending — allocation takes the lowest base, so
	// placement is deterministic.
	free [][]int
	// taken maps an allocated base to its order.
	taken map[int]int

	freePEs   int
	allocs    int64
	frees     int64
	splits    int64
	coalesces int64
	failed    int64
}

// NewBuddy returns an empty allocator over total PEs (a power of two,
// MinBlock..MaxPEs).
func NewBuddy(total int) (*Buddy, error) {
	if total < MinBlock || total > MaxPEs || total&(total-1) != 0 {
		return nil, fmt.Errorf("partition: machine size %d must be a power of two in %d..%d", total, MinBlock, MaxPEs)
	}
	b := &Buddy{
		total:    total,
		maxOrder: orderOf(total),
		taken:    map[int]int{},
		freePEs:  total,
	}
	b.free = make([][]int, b.maxOrder+1)
	b.free[b.maxOrder] = []int{0}
	return b, nil
}

// Total returns the pool size in PEs.
func (b *Buddy) Total() int { return b.total }

// FreePEs returns the unallocated PE count.
func (b *Buddy) FreePEs() int { return b.freePEs }

// LargestFree returns the size of the largest free block (0 when the
// machine is full).
func (b *Buddy) LargestFree() int {
	for o := b.maxOrder; o >= 0; o-- {
		if len(b.free[o]) > 0 {
			return 1 << o
		}
	}
	return 0
}

// FitOrder returns the order of the smallest free block that can
// serve a partition of pes PEs, and whether one exists. This is the
// scheduler's fit probe: ok means an Alloc(pes) would succeed, and
// order - orderOf(blockFor(pes)) is how many splits it would cost.
func (b *Buddy) FitOrder(pes int) (int, bool) {
	if !ValidPEs(pes, b.total) {
		return 0, false
	}
	want := orderOf(blockFor(pes))
	for o := want; o <= b.maxOrder; o++ {
		if len(b.free[o]) > 0 {
			return o, true
		}
	}
	return 0, false
}

// Fragmentation returns the external fragmentation of the free pool:
// 1 - largest_free/free_total, the fraction of free capacity that
// cannot serve a maximal request. 0 when nothing is free (a full
// machine is not fragmented) and 0 when the free pool is one block.
func (b *Buddy) Fragmentation() float64 {
	if b.freePEs == 0 {
		return 0
	}
	return 1 - float64(b.LargestFree())/float64(b.freePEs)
}

// Alloc reserves a block for a partition of pes PEs, returning its
// base. The block is blockFor(pes) PEs, aligned to its own size, at
// the lowest available address; larger free blocks split as needed.
func (b *Buddy) Alloc(pes int) (int, error) {
	if !ValidPEs(pes, b.total) {
		b.failed++
		return 0, fmt.Errorf("partition: size %d invalid for a %d-PE machine (want a power of two in 1..%d)", pes, b.total, b.total)
	}
	want := orderOf(blockFor(pes))
	from, ok := b.FitOrder(pes)
	if !ok {
		b.failed++
		return 0, fmt.Errorf("partition: no free %d-PE subcube (machine fragmented or full: %d PEs free, largest block %d)",
			blockFor(pes), b.freePEs, b.LargestFree())
	}
	base := b.free[from][0]
	b.free[from] = b.free[from][1:]
	// Split down to the wanted order, keeping the lower half (lowest
	// base) and freeing the upper buddy at each step.
	for o := from; o > want; o-- {
		b.insertFree(o-1, base+1<<(o-1))
		b.splits++
	}
	b.taken[base] = want
	b.freePEs -= 1 << want
	b.allocs++
	return base, nil
}

// Free returns the block at base to the pool, coalescing with its
// buddy at every order where both halves are free.
func (b *Buddy) Free(base int) error {
	order, ok := b.taken[base]
	if !ok {
		return fmt.Errorf("partition: free of base %d, which is not allocated", base)
	}
	delete(b.taken, base)
	b.freePEs += 1 << order
	b.frees++
	for order < b.maxOrder {
		buddy := base ^ 1<<order
		if !b.removeFree(order, buddy) {
			break
		}
		if buddy < base {
			base = buddy
		}
		order++
		b.coalesces++
	}
	b.insertFree(order, base)
	return nil
}

// insertFree adds base to the sorted free list of the given order.
func (b *Buddy) insertFree(order, base int) {
	list := b.free[order]
	i := sort.SearchInts(list, base)
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = base
	b.free[order] = list
}

// removeFree removes base from the free list of the given order,
// reporting whether it was present.
func (b *Buddy) removeFree(order, base int) bool {
	list := b.free[order]
	i := sort.SearchInts(list, base)
	if i >= len(list) || list[i] != base {
		return false
	}
	b.free[order] = append(list[:i], list[i+1:]...)
	return true
}

// Allocated returns the allocated blocks as (base, size) pairs,
// sorted by base.
func (b *Buddy) Allocated() [][2]int {
	out := make([][2]int, 0, len(b.taken))
	for base, order := range b.taken {
		out = append(out, [2]int{base, 1 << order})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// FreeBlocks returns the free blocks as (base, size) pairs, sorted by
// base.
func (b *Buddy) FreeBlocks() [][2]int {
	var out [][2]int
	for o, list := range b.free {
		for _, base := range list {
			out = append(out, [2]int{base, 1 << o})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Counters returns the allocator's lifetime event counts.
func (b *Buddy) Counters() (allocs, frees, splits, coalesces, failed int64) {
	return b.allocs, b.frees, b.splits, b.coalesces, b.failed
}

// Check verifies the allocator's invariants, returning the first
// violation: every block (free or allocated) is a power of two
// aligned to its own size, blocks tile the machine exactly (no
// overlap, no gap), no two free buddies are uncoalesced, and the free
// counter matches the free lists. The fuzz target drives this after
// every operation.
func (b *Buddy) Check() error {
	type block struct {
		base, size int
		free       bool
	}
	var all []block
	for _, fb := range b.FreeBlocks() {
		all = append(all, block{fb[0], fb[1], true})
	}
	for base, order := range b.taken {
		all = append(all, block{base, 1 << order, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].base < all[j].base })
	at, freeSum := 0, 0
	for _, blk := range all {
		switch {
		case blk.size < MinBlock || blk.size&(blk.size-1) != 0:
			return fmt.Errorf("block at %d has size %d, not a power of two >= %d", blk.base, blk.size, MinBlock)
		case blk.base%blk.size != 0:
			return fmt.Errorf("block at %d is not aligned to its size %d", blk.base, blk.size)
		case blk.base != at:
			return fmt.Errorf("blocks do not tile: expected a block at %d, found one at %d", at, blk.base)
		}
		at = blk.base + blk.size
		if blk.free {
			freeSum += blk.size
		}
	}
	if at != b.total {
		return fmt.Errorf("blocks cover %d of %d PEs", at, b.total)
	}
	if freeSum != b.freePEs {
		return fmt.Errorf("free lists hold %d PEs, counter says %d", freeSum, b.freePEs)
	}
	for o, list := range b.free {
		for _, base := range list {
			if o < b.maxOrder {
				buddy := base ^ 1<<o
				if i := sort.SearchInts(list, buddy); i < len(list) && list[i] == buddy {
					return fmt.Errorf("free buddies at %d and %d (order %d) left uncoalesced", base, buddy, o)
				}
			}
		}
	}
	if len(b.taken) == 0 {
		if len(b.free[b.maxOrder]) != 1 || b.free[b.maxOrder][0] != 0 {
			return fmt.Errorf("empty machine did not coalesce back to one %d-PE block", b.total)
		}
	}
	return nil
}
