package olsr

import (
	"math/bits"
	"sort"

	"siphoc/internal/netem"
)

// This file is the memory model of the dense-state routing core: an
// append-only interner mapping netem.NodeIDs to small dense indices, a
// pointer-free bitset, and the scratch pools recomputeImpl reuses across
// rebuilds. The point of all three is the same — the `make profile` run that
// motivated them showed the 1024-node ceiling was GC scanning plus Go map
// iteration over routing state, so the hot state moved into slices and
// bitsets indexed by interned node index: pointer-free (the GC never scans
// them), iterable in deterministic dense order (no map-iteration cost, no
// aeshash), and reusable across recomputes (no per-rebuild minting).

// nodeIndex interns NodeIDs into dense uint32 indices, per Protocol
// instance. It is append-only: an index, once assigned, is stable for the
// lifetime of the instance, so every slice-backed store can be indexed by it
// and every hash derived from it stays comparable. Alongside the forward and
// reverse maps it maintains the lexical rank of every interned ID, so the
// recompute path can keep the old string-sorted traversal order — and
// therefore bit-identical route tie-breaks — with integer comparisons.
type nodeIndex struct {
	idx   map[netem.NodeID]uint32
	ids   []netem.NodeID // dense index -> ID
	rank  []uint32       // dense index -> lexical position among interned IDs
	order []uint32       // lexical position -> dense index
}

func newNodeIndex() *nodeIndex {
	return &nodeIndex{idx: make(map[netem.NodeID]uint32)}
}

// len returns the number of interned IDs; valid dense indices are [0, len).
func (x *nodeIndex) len() int { return len(x.ids) }

// lookup returns the dense index for id without interning it.
func (x *nodeIndex) lookup(id netem.NodeID) (uint32, bool) {
	i, ok := x.idx[id]
	return i, ok
}

// lookupBytes is lookup keyed by the raw wire bytes of an ID. The compiler
// elides the string conversion for the map probe, so the receive path can
// resolve known nodes without minting a string per message field.
func (x *nodeIndex) lookupBytes(b []byte) (uint32, bool) {
	i, ok := x.idx[netem.NodeID(b)]
	return i, ok
}

// internBytes is intern keyed by raw wire bytes: a known ID costs one
// allocation-free map probe, and the string copy happens only on first
// sight — i.e. only when the topology actually grows.
func (x *nodeIndex) internBytes(b []byte) uint32 {
	if i, ok := x.idx[netem.NodeID(b)]; ok {
		return i
	}
	return x.intern(netem.NodeID(b))
}

// intern returns the dense index for id, assigning the next free one on
// first sight. Insertion keeps the rank tables consistent in O(n) — new IDs
// only appear on topology growth, never in steady state.
func (x *nodeIndex) intern(id netem.NodeID) uint32 {
	if i, ok := x.idx[id]; ok {
		return i
	}
	i := uint32(len(x.ids))
	x.idx[id] = i
	x.ids = append(x.ids, id)
	pos := sort.Search(len(x.order), func(k int) bool { return x.ids[x.order[k]] > id })
	x.order = append(x.order, 0)
	copy(x.order[pos+1:], x.order[pos:])
	x.order[pos] = i
	x.rank = append(x.rank, 0)
	for k := pos; k < len(x.order); k++ {
		x.rank[x.order[k]] = uint32(k)
	}
	return i
}

// bitset is a dense set over node indices. The backing array is pointer-free
// (the GC never descends into it) and grows monotonically with the interner.
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

// mix64 hashes one link-state element (kind, a, b are dense indices) with a
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

// recomputeScratch is the pooled working memory of recomputeImpl, reused
// across rebuilds under the protocol mutex. Before pooling, the BFS scratch
// (visited set, queue, adjacency lists, route map) plus the fresh table map
// minted per rebuild accounted for 61% of all bytes the 1024-node scale
// study allocated; with the pool, a steady-state rebuild allocates nothing
// once the high-water topology size has been seen.
type recomputeScratch struct {
	symNbs    []uint32   // symmetric 1-hop neighbours, lexical (rank) order
	uncovered bitset     // 2-hop nodes not yet covered by an MPR
	mprNew    bitset     // MPR set under construction (swapped into place)
	adj       [][]uint32 // dense adjacency lists, truncated and refilled
	queue     []uint32   // BFS frontier
}

// grow sizes every scratch structure for n interned nodes.
func (s *recomputeScratch) grow(n int) {
	s.uncovered.grow(n)
	s.mprNew.grow(n)
	for len(s.adj) < n {
		s.adj = append(s.adj, nil)
	}
}
