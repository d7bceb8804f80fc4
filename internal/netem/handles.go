package netem

import (
	"maps"
	"slices"
	"strings"
)

// Handles is one snapshot of a network's node-handle table: the dense uint32
// each node ID was given, and the lexical rank of each. AddHost gives the next
// handle in AddHost order (a restarted ID keeps its old one) and Intern gives
// one to an ID first met on the wire; a handle never changes. A snapshot is
// immutable, so reads take no lock and allocate nothing; an insert, which
// happens only when the topology grows, publishes a new one.
type Handles struct {
	idx  map[NodeID]uint32
	ids  []NodeID // handle -> ID
	rank []uint32 // handle -> position of its ID in lexical order
}

// Len returns the number of handles given; valid handles are [0, Len).
func (t *Handles) Len() int { return len(t.ids) }

// Lookup returns id's handle.
func (t *Handles) Lookup(id NodeID) (uint32, bool) {
	h, ok := t.idx[id]
	return h, ok
}

// LookupBytes is Lookup keyed by an ID's wire bytes, with no string minted.
func (t *Handles) LookupBytes(b []byte) (uint32, bool) {
	h, ok := t.idx[NodeID(b)]
	return h, ok
}

// ID returns the ID handle h names, the network's own string.
func (t *Handles) ID(h uint32) NodeID { return t.ids[h] }

// Rank returns where h's ID sorts among the snapshot's IDs.
func (t *Handles) Rank(h uint32) uint32 { return t.rank[h] }

// Handles returns the current snapshot of the network's handle table.
func (n *Network) Handles() *Handles { return n.handles.Load() }

// Intern returns id's handle, giving it the next one on first sight. The
// table keeps its own copy of a new ID, so id may alias a borrowed buffer.
func (n *Network) Intern(id NodeID) uint32 {
	if h, ok := n.Handles().Lookup(id); ok {
		return h
	}
	h, _ := n.InternAll(NodeID(strings.Clone(string(id)))).Lookup(id)
	return h
}

// InternAll gives each of ids not in the table the next handle, in the order
// given, publishes them all in one snapshot — a batch of nodes about to be
// added costs one copy of the table, not one per node — and returns it. Each
// new ID is ranked in O(handles). The table keeps the strings given, so ids
// must not alias a lent buffer. Intern and AddHost insert through it.
func (n *Network) InternAll(ids ...NodeID) *Handles {
	n.handleMu.Lock()
	defer n.handleMu.Unlock()
	cur := n.handles.Load()
	next := &Handles{idx: cur.idx, ids: slices.Clip(cur.ids), rank: slices.Clip(cur.rank)}
	for _, id := range ids {
		if _, ok := next.idx[id]; ok {
			continue
		}
		if len(next.ids) == len(cur.ids) {
			next.idx = make(map[NodeID]uint32, len(cur.ids)+len(ids))
			maps.Copy(next.idx, cur.idx)
		}
		h := uint32(len(next.ids))
		next.idx[id] = h
		next.ids = append(next.ids, id)
		next.rank = append(next.rank, 0)
		for i, other := range next.ids[:h] {
			if other > id {
				next.rank[i]++
			} else {
				next.rank[h]++
			}
		}
	}
	if len(next.ids) == len(cur.ids) {
		return cur
	}
	n.handles.Store(next)
	return next
}

// Handle returns the node's handle in its network's table.
func (h *Host) Handle() uint32 { return h.handle }
