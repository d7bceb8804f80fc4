package netem

import (
	"sync/atomic"
	"testing"
	"time"

	"siphoc/internal/testutil"
)

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatal(msg)
}

// TestEventLoopUnicastAndHandle drives a two-hop unicast through the inline
// core with callback delivery on the receiving conn.
func TestEventLoopUnicastAndHandle(t *testing.T) {
	n := NewNetwork(Config{Range: 100, BaseDelay: time.Millisecond})
	defer n.Close()
	a, err := n.AddHost("a", Position{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHost("b", Position{50, 0})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := a.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Listen(200)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	cb.Handle(func(dg *Datagram) {
		if string(dg.Data) == "ping" && dg.SrcNode == "a" {
			got.Add(1)
		}
	})
	a.SetRouteProvider(staticRoutes{"b": "b"})
	b.SetRouteProvider(staticRoutes{"a": "a"})
	if err := ca.WriteTo([]byte("ping"), "b", 200); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return got.Load() == 1 }, "unicast datagram never reached the Handle callback")
}

// TestEventLoopLoopback pins that same-host datagrams still arrive in
// event-loop mode, where they ride the shard scheduler instead of the
// caller's stack.
func TestEventLoopLoopback(t *testing.T) {
	n := NewNetwork(Config{Range: 100, BaseDelay: time.Millisecond})
	defer n.Close()
	a, err := n.AddHost("a", Position{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := a.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := a.Listen(200)
	if err != nil {
		t.Fatal(err)
	}
	// The reply path nests: c2's handler answers back to c1's port on the
	// same host. Under inline delivery this must not deadlock or recurse.
	var answered atomic.Int64
	c2.Handle(func(dg *Datagram) {
		_ = c2.WriteTo([]byte("pong"), "a", 100)
	})
	c1.Handle(func(dg *Datagram) {
		if string(dg.Data) == "pong" {
			answered.Add(1)
		}
	})
	if err := c1.WriteTo([]byte("ping"), "a", 200); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return answered.Load() == 1 }, "loopback request/reply never completed")
}

// TestEventLoopGoroutinesPerHost pins what a network costs in goroutines: one
// worker per shard of its one scheduler, which handles every host's frames and
// timers, and nothing per host.
func TestEventLoopGoroutinesPerHost(t *testing.T) {
	base := testutil.StableGoroutines() // an earlier test's workers have exited
	n := NewNetwork(Config{Range: 10})
	defer n.Close()
	for i := 0; i < 64; i++ {
		id := NodeID(rune('A' + i%26))
		if _, err := n.AddHost(NodeID(string(id)+string(rune('a'+i/26))), Position{float64(i) * 100, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := testutil.StableGoroutines()-base, n.sched.Shards(); got != want {
		t.Fatalf("a network of 64 hosts runs on %d goroutines, want its %d shard workers", got, want)
	}
}
