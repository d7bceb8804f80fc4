package netem

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
)

// runSeededStorm drives a fixed traffic pattern over a 16-node grid with
// loss and jitter enabled and returns the medium stats. All sends happen
// from one goroutine, so the RNG draw order is fully determined by the
// traffic sequence and the seed.
func runSeededStorm(t *testing.T, seed int64) Stats {
	t.Helper()
	n := NewNetwork(Config{
		BaseDelay:   20 * time.Microsecond,
		DelayJitter: 2 * time.Millisecond,
		LossRate:    0.25,
		Seed:        seed,
	})
	defer n.Close()
	hosts, err := Grid(n, 4, 4, 80, "d")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 48)
	for round := range 25 {
		for i, h := range hosts {
			if err := h.SendFrame(Broadcast, KindRouting, payload); err != nil {
				t.Fatal(err)
			}
			// A unicast to the next grid node (in range for same-row
			// neighbours; out-of-range pairs draw no loss, also part of
			// the contract).
			dst := hosts[(i+1)%len(hosts)].ID()
			if err := h.SendFrame(dst, KindData, payload[:16]); err != nil {
				t.Fatal(err)
			}
			_ = round
		}
	}
	return n.Stats()
}

// TestSeededLossJitterDeterminism pins the RNG-determinism contract the
// delivery-scheduler rewrite must preserve: the same Config.Seed and the
// same (single-goroutine) traffic sequence yield bit-identical Stats —
// same per-receiver loss draws, same jitter draws, same delivery counts.
func TestSeededLossJitterDeterminism(t *testing.T) {
	a := runSeededStorm(t, 42)
	b := runSeededStorm(t, 42)
	if a != b {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
	if a.Lost == 0 {
		t.Fatal("loss model drew no losses; test exercises nothing")
	}
	if a.Deliveries == 0 {
		t.Fatal("no deliveries recorded")
	}
	c := runSeededStorm(t, 43)
	if a.Lost == c.Lost {
		t.Logf("note: seeds 42 and 43 drew equal loss counts (%d); sequence check below still holds", a.Lost)
	}
	if c.TotalFrames() != a.TotalFrames() {
		t.Fatalf("frame counts must not depend on seed: %d vs %d", a.TotalFrames(), c.TotalFrames())
	}
}

// TestBroadcastUsesAdjacencyCache checks the cache is invalidated by
// topology changes: a broadcast after SetPosition must reach the new
// neighbourhood, not the cached one.
func TestBroadcastUsesAdjacencyCache(t *testing.T) {
	n := NewNetwork(Config{BaseDelay: 20 * time.Microsecond})
	defer n.Close()
	ha, err := n.AddHost("a", Position{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n.AddHost("b", Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Frame, 16)
	if err := hb.HandleFrames(KindRouting, func(f Frame) { got <- f }); err != nil {
		t.Fatal(err)
	}
	if err := ha.SendFrame(Broadcast, KindRouting, []byte("one")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("in-range broadcast not delivered")
	}
	// Move b out of range: the cached neighbourhood must be discarded.
	n.SetPosition("b", Position{X: 5000})
	if err := ha.SendFrame(Broadcast, KindRouting, []byte("two")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		t.Fatalf("stale adjacency cache delivered %q out of range", f.Payload)
	case <-time.After(20 * time.Millisecond):
	}
	// And back in range again.
	n.SetPosition("b", Position{X: 60})
	if err := ha.SendFrame(Broadcast, KindRouting, []byte("three")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if string(f.Payload) != "three" {
			t.Fatalf("unexpected frame %q", f.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("broadcast after cache re-validation not delivered")
	}
}

// TestGridPathMatchesScan cross-checks the spatial-grid neighbourhood
// computation against a brute-force distance scan, on an 8×8 and a 3×3 grid,
// including link overrides that defeat the grid's locality assumption.
func TestGridPathMatchesScan(t *testing.T) {
	for _, side := range []int{8, 3} {
		n := NewNetwork(Config{BaseDelay: 20 * time.Microsecond})
		defer n.Close()
		hosts, err := Grid(n, side, side, 70, "g")
		if err != nil {
			t.Fatal(err)
		}
		// Force one distant link up and one close link down.
		far := NodeName("g", side*side)
		n.SetLink("g.1", far, true)
		n.SetLink("g.1", "g.2", false)
		scan := func(id NodeID) map[NodeID]bool {
			n.mu.Lock()
			defer n.mu.Unlock()
			out := make(map[NodeID]bool)
			for other := range n.hosts {
				if other != id && n.connectedLocked(id, other) {
					out[other] = true
				}
			}
			return out
		}
		for _, h := range hosts {
			want := scan(h.ID())
			got := n.Neighbors(h.ID())
			if len(got) != len(want) {
				t.Fatalf("%d×%d, %s: grid neighbours %v != scan %v", side, side, h.ID(), got, want)
			}
			for _, nb := range got {
				if !want[nb] {
					t.Fatalf("%d×%d, %s: grid produced %s, not in scan set", side, side, h.ID(), nb)
				}
			}
		}
	}
}

// TestOneShardTotalOrder pins what Shards: 1 promises: one queue, so a timer,
// a frame delivery and a loopback datagram due at the same instant run in the
// order they were queued, whatever kind each is. Timers and deliveries used to
// sit on two heaps with a worker each, where this order was a race.
func TestOneShardTotalOrder(t *testing.T) {
	for run := range 100 {
		oneShardTotalOrder(t, run)
	}
}

func oneShardTotalOrder(t *testing.T, run int) {
	clk := clock.NewFake(time.Unix(7_000_000, 0))
	n := NewNetwork(Config{BaseDelay: time.Millisecond, Clock: clk, Shards: 1})
	defer n.Close()
	a, err := n.AddHost("a", Position{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHost("b", Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	a.SetRouteProvider(staticRoutes{"b": "b"})
	out, err := a.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := a.Listen(101)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := b.Listen(200)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []byte
	saw := func(id byte) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	seen := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(order)
	}
	loop.Handle(func(dg *Datagram) { saw(dg.Data[0]) })
	remote.Handle(func(dg *Datagram) { saw(dg.Data[0]) })

	// Every frame is the same size, so every unicast is in the air for the
	// same time; learn it from the first one.
	var frameLen int
	n.SetTap(func(f Frame) { frameLen = len(f.Payload) })
	if err := out.WriteTo([]byte{0}, "b", 200); err != nil {
		t.Fatal(err)
	}
	n.SetTap(nil)
	flight := time.Millisecond + time.Duration(float64(frameLen)/n.cfg.BytesPerSecond*float64(time.Second))

	// Interleave the three kinds, all queued at one fake instant: loopbacks
	// and After(0) are due now, unicasts and After(flight) one flight later.
	// Within each deadline the order of arrival must be the order queued.
	var now, later []byte
	later = append(later, 0)
	for id := byte(1); id < 60; id++ {
		switch (int(id) + run) % 4 {
		case 0:
			a.Sched().After(string(rune('k'+id%3)), 0, func(time.Time) { saw(id) })
			now = append(now, id)
		case 1:
			err = out.WriteTo([]byte{id}, "a", 101)
			now = append(now, id)
		case 2:
			a.Sched().After(string(rune('k'+id%3)), flight, func(time.Time) { saw(id) })
			later = append(later, id)
		case 3:
			err = out.WriteTo([]byte{id}, "b", 200)
			later = append(later, id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	clk.Sleep(0)
	if got := seen(); got != len(now) {
		t.Fatalf("run %d: %d of %d tasks due at once ran", run, got, len(now))
	}
	clk.Sleep(flight)
	want := append(now, later...)
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(order, want) {
		t.Fatalf("run %d: equal-deadline tasks ran out of queue order:\n got  %v\n want %v", run, order, want)
	}
}
