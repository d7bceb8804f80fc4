package netem

import "testing"

// TestHandlesFollowAddHostOrder pins how handles are given: in AddHost order,
// kept by a restarted ID, given on first sight by Intern, in the order given
// by InternAll, and ranked lexically; and that every read of a snapshot is
// free of allocation.
func TestHandlesFollowAddHostOrder(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	for i, id := range []NodeID{"b", "c", "a"} {
		h, err := n.AddHost(id, Position{X: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if h.Handle() != uint32(i) {
			t.Fatalf("%s got handle %d, want %d", id, h.Handle(), i)
		}
	}
	n.RemoveHost("c")
	if h, err := n.AddHost("c", Position{}); err != nil || h.Handle() != 1 {
		t.Fatalf("restarted c got handle %v (%v), want 1", h.Handle(), err)
	}
	wire := []byte("aa")
	if got := n.Intern(NodeID(wire)); got != 3 {
		t.Fatalf("a new ID got handle %d, want 3", got)
	}
	wire[1] = 'z' // the table kept its own copy
	ids := n.Handles()
	if ids.Len() != 4 || ids.ID(3) != "aa" || n.Intern("b") != 0 {
		t.Fatalf("table %v %q, b is %d", ids.Len(), ids.ID(3), n.Intern("b"))
	}
	for h, want := range []uint32{2, 3, 0, 1} { // b c a aa
		if got := ids.Rank(uint32(h)); got != want {
			t.Fatalf("%s ranks %d, want %d", ids.ID(uint32(h)), got, want)
		}
	}
	probe := []byte("aa")
	allocs := testing.AllocsPerRun(100, func() {
		h, ok := n.Handles().LookupBytes(probe)
		if !ok || ids.ID(h) != "aa" || ids.Rank(h) != 1 {
			t.Fatal("probe missed")
		}
		if _, ok := ids.Lookup("zz"); ok {
			t.Fatal("unknown ID found")
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("a snapshot read allocates %.1f times", allocs)
	}
	if n.Handles() != ids {
		t.Fatal("reads published a new snapshot")
	}
	n.InternAll("ab", "a", "0", "ab") // new, known and repeated IDs
	ids = n.Handles()
	if ids.Len() != 6 || ids.ID(4) != "ab" || ids.ID(5) != "0" {
		t.Fatalf("after a batch: %d handles, 4 is %q and 5 is %q; want 6, ab and 0", ids.Len(), ids.ID(4), ids.ID(5))
	}
	for h, want := range []uint32{4, 5, 1, 2, 3, 0} { // b c a aa ab 0
		if got := ids.Rank(uint32(h)); got != want {
			t.Fatalf("after a batch, %s ranks %d, want %d", ids.ID(uint32(h)), got, want)
		}
	}
}
