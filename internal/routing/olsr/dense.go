package olsr

import (
	"math/bits"

	"siphoc/internal/routing"
)

// This file is the memory model of the dense-state routing core: a
// pointer-free bitset over node handles (see netem.Handles), and the rebuild
// scratch recomputeImpl takes off a shared free list. Both exist because the
// `make profile` run behind them showed the 1024-node ceiling was GC scanning
// plus Go map iteration over routing state, so the hot state moved into
// slices and bitsets indexed by handle: pointer-free (the GC never scans
// them), iterable in deterministic handle order (no map-iteration cost, no
// aeshash), and reusable across recomputes (no per-rebuild minting).

// bitset is a dense set over node handles. The backing array is pointer-free
// (the GC never descends into it) and only grows.
type bitset []uint64

// grow ensures the set can hold indices [0, n).
func (b *bitset) grow(n int) {
	if need := (n + 63) >> 6; len(*b) < need {
		if cap(*b) >= need {
			*b = (*b)[:need]
			return
		}
		nb := make(bitset, need, max(need, 2*cap(*b)))
		copy(nb, *b)
		*b = nb
	}
}

func (b bitset) has(i uint32) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

func (b *bitset) set(i uint32) {
	b.grow(int(i) + 1)
	(*b)[i>>6] |= 1 << (i & 63)
}

func (b bitset) unset(i uint32) {
	if w := int(i >> 6); w < len(b) {
		b[w] &^= 1 << (i & 63)
	}
}

// reset clears every bit, keeping the backing array.
func (b bitset) reset() { clear(b) }

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// empty reports whether no bit is set.
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// equal reports whether b and o hold the same bits; a shorter set reads as
// zero past its end.
func (b bitset) equal(o bitset) bool {
	if len(b) < len(o) {
		b, o = o, b
	}
	for i, w := range b {
		if i < len(o) && w != o[i] || i >= len(o) && w != 0 {
			return false
		}
	}
	return true
}

// andCount returns |b ∩ o| without materializing the intersection — the MPR
// greedy cover calls this once per candidate per round.
func (b bitset) andCount(o bitset) int {
	n := min(len(b), len(o))
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(b[i] & o[i])
	}
	return c
}

// andNot removes every bit of o from b in place.
func (b bitset) andNot(o bitset) {
	n := min(len(b), len(o))
	for i := 0; i < n; i++ {
		b[i] &^= o[i]
	}
}

// forEach calls fn for every set bit in ascending index order.
func (b bitset) forEach(fn func(uint32)) {
	for w, word := range b {
		for word != 0 {
			fn(uint32(w<<6 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// mix64 hashes one link-state element (kind, a, b are handles) with a
// splitmix64 finalizer. Per-element hashes are summed so the combined input
// hash is independent of iteration order, exactly like the string-keyed
// hashEdge it replaces — but at a handful of integer ops instead of an
// FNV walk over two strings.
func mix64(kind byte, a, b uint32) uint64 {
	x := uint64(kind)<<58 | uint64(a)<<29 | uint64(b)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// recomputeScratch is the working memory of one rebuild, taken off
// scratchFree at its start and given back at its end: one per rebuild in
// progress, not one per instance. A steady-state rebuild allocates nothing
// once the high-water topology size has been seen.
type recomputeScratch struct {
	symNbs    []int      // rows of the symmetric neighbours, lexical (rank) order
	uncovered bitset     // 2-hop nodes not yet covered by an MPR
	mprNew    bitset     // MPR set under construction (swapped into place)
	adj       [][]uint32 // adjacency by handle, truncated and refilled
	queue     []uint32   // BFS frontier
}

// scratchFree is the rebuild scratch not in use.
var scratchFree routing.Spares[*recomputeScratch]
