package cluster

import (
	"encoding/binary"
	"sort"

	"repro/internal/cache"
)

// ring is a consistent-hash ring over replica names. Each replica
// contributes vnodes points (FNV-64 of "name#i"), and a spec key maps
// to the replica owning the first point clockwise of the key's hash.
// Because the ring hashes stable names — never addresses or indices —
// ownership survives restarts and port changes, and adding or removing
// one replica only remaps the keys adjacent to its points.
type ring struct {
	hashes []uint64 // sorted
	owner  []int    // replica index per point, parallel to hashes
	n      int      // replica count
}

// vnodes is the number of ring points per replica.
const vnodes = 64

func newRing(names []string) *ring {
	r := &ring{n: len(names)}
	type pt struct {
		h uint64
		i int
	}
	pts := make([]pt, 0, len(names)*vnodes)
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, pt{fnv64(name, v), i})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].h != pts[b].h {
			return pts[a].h < pts[b].h
		}
		return pts[a].i < pts[b].i // total order even on hash collision
	})
	r.hashes = make([]uint64, len(pts))
	r.owner = make([]int, len(pts))
	for i, p := range pts {
		r.hashes[i] = p.h
		r.owner[i] = p.i
	}
	return r
}

// fnv64 hashes "name#vnode" with FNV-1a plus a murmur-style finalizer:
// raw FNV avalanches poorly in the high bits for short inputs, which
// skews ring ownership badly (point order sorts on the full word).
func fnv64(name string, vnode int) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	h = (h ^ '#') * 1099511628211
	h = (h ^ uint64(vnode&0xff)) * 1099511628211
	h = (h ^ uint64((vnode>>8)&0xff)) * 1099511628211
	h ^= h >> 33
	h *= 0xff51afd7ed558ccb
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// order returns every replica index in ring order starting at the
// key's successor point: order[0] is the key's owner, and the rest is
// the deterministic failover sequence.
func (r *ring) order(key cache.Key) []int {
	out := make([]int, 0, r.n)
	if r.n == 0 {
		return out
	}
	h := binary.BigEndian.Uint64(key[:8])
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	seen := make([]bool, r.n)
	for i := 0; i < len(r.hashes) && len(out) < r.n; i++ {
		o := r.owner[(start+i)%len(r.hashes)]
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}
