package netem

import (
	"reflect"
	"testing"
)

// TestNodesSnapshotCached pins the epoch-cached Nodes contract: repeated
// calls on an unchanged topology return the same immutable snapshot (no
// per-call sort/alloc), and any topology mutation invalidates it together
// with the adjacency cache.
func TestNodesSnapshotCached(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	for _, id := range []NodeID{"c", "a", "b"} {
		if _, err := n.AddHost(id, Position{}); err != nil {
			t.Fatal(err)
		}
	}
	first := n.Nodes()
	if want := []NodeID{"a", "b", "c"}; !reflect.DeepEqual(first, want) {
		t.Fatalf("Nodes() = %v, want %v", first, want)
	}
	second := n.Nodes()
	if &first[0] != &second[0] {
		t.Fatal("unchanged topology returned a fresh slice; snapshot not cached")
	}

	if _, err := n.AddHost("d", Position{}); err != nil {
		t.Fatal(err)
	}
	if got, want := n.Nodes(), []NodeID{"a", "b", "c", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after AddHost: Nodes() = %v, want %v", got, want)
	}
	n.RemoveHost("a")
	if got, want := n.Nodes(), []NodeID{"b", "c", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after RemoveHost: Nodes() = %v, want %v", got, want)
	}
	// The stale snapshot taken before the mutations must be untouched.
	if want := []NodeID{"a", "b", "c"}; !reflect.DeepEqual(first, want) {
		t.Fatalf("earlier snapshot mutated in place: %v", first)
	}
}

// TestNeighborsSharedSnapshot pins that Neighbors shares the adjacency
// cache's immutable slice and tracks topology-epoch invalidation.
func TestNeighborsSharedSnapshot(t *testing.T) {
	n := NewNetwork(Config{Range: 100})
	defer n.Close()
	for id, pos := range map[NodeID]Position{
		"a": {0, 0}, "b": {50, 0}, "c": {500, 0},
	} {
		if _, err := n.AddHost(id, pos); err != nil {
			t.Fatal(err)
		}
	}
	first := n.Neighbors("a")
	if len(first) != 1 || first[0] != "b" {
		t.Fatalf("Neighbors(a) = %v, want [b]", first)
	}
	second := n.Neighbors("a")
	if &first[0] != &second[0] {
		t.Fatal("unchanged topology returned a fresh neighbour slice")
	}
	n.SetPosition("c", Position{90, 0})
	if got := n.Neighbors("a"); len(got) != 2 {
		t.Fatalf("after move: Neighbors(a) = %v, want [b c]", got)
	}
	if len(first) != 1 || first[0] != "b" {
		t.Fatalf("earlier neighbour snapshot mutated in place: %v", first)
	}
}

// TestAddHostFilesIntoSpatialGrid brings a 7×3 grid of nodes up one at a time,
// asking every node's neighbourhood after each, so that the spatial grid is
// built before most hosts exist and each later one is filed into it. The
// neighbourhoods must be those of the same grid built in one go, which
// computes them from a grid built once.
func TestAddHostFilesIntoSpatialGrid(t *testing.T) {
	pos := func(i int) Position { return Position{X: float64(i%7) * 60, Y: float64(i/7) * 60} }
	grown, built := NewNetwork(Config{}), NewNetwork(Config{})
	defer grown.Close()
	defer built.Close()
	const nodes = 21
	for i := range nodes {
		if _, err := grown.AddHost(NodeName("n", i+1), pos(i)); err != nil {
			t.Fatal(err)
		}
		for j := range i + 1 {
			grown.Neighbors(NodeName("n", j+1))
		}
	}
	for i := range nodes {
		if _, err := built.AddHost(NodeName("n", i+1), pos(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range nodes {
		id := NodeName("n", i+1)
		if got, want := grown.Neighbors(id), built.Neighbors(id); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: neighbours %v after a one-by-one bring-up, %v built at once", id, got, want)
		}
	}
}
