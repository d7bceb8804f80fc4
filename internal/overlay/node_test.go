package overlay_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/overlay"
)

// dhtNet is the deterministic overlay test harness: a one-shard Internet on
// a fake clock, which the test body moves by sleeping on it and by blocking
// lookups, so seeded runs replay bit-identically.
type dhtNet struct {
	t     testing.TB
	fake  *clock.Fake
	start time.Time
	inet  *internet.Internet

	// mu guards nodes and order: churn tests crash and restart nodes from
	// FaultPlan tasks.
	mu    sync.Mutex
	nodes map[netem.NodeID]*overlay.Node
	order []netem.NodeID
}

func newDHTNet(t testing.TB) *dhtNet {
	t.Helper()
	start := time.Unix(1_700_000_000, 0)
	fake := clock.NewFake(start)
	return &dhtNet{
		t:     t,
		fake:  fake,
		start: start,
		inet: internet.New(internet.Config{
			Clock:  fake,
			Delay:  time.Millisecond,
			Shards: 1,
		}),
		nodes: make(map[netem.NodeID]*overlay.Node),
	}
}

func (d *dhtNet) close() {
	d.mu.Lock()
	var live []*overlay.Node
	for _, id := range d.order {
		if n := d.nodes[id]; n != nil {
			live = append(live, n)
		}
	}
	d.mu.Unlock()
	for _, n := range live {
		n.Close()
	}
	d.inet.Close()
}

// node returns the named overlay node (nil while crashed).
func (d *dhtNet) node(name netem.NodeID) *overlay.Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nodes[name]
}

// addNode brings up one overlay node; cfg.Host is filled in.
func (d *dhtNet) addNode(name netem.NodeID, cfg overlay.Config) *overlay.Node {
	d.t.Helper()
	host, err := d.inet.AddHost(name)
	if err != nil {
		d.t.Fatalf("add host %s: %v", name, err)
	}
	cfg.Host = host
	n, err := overlay.New(cfg)
	if err != nil {
		d.t.Fatalf("new node %s: %v", name, err)
	}
	if err := n.Start(); err != nil {
		d.t.Fatalf("start node %s: %v", name, err)
	}
	d.mu.Lock()
	if _, seen := d.nodes[name]; !seen {
		d.order = append(d.order, name)
	}
	d.nodes[name] = n
	d.mu.Unlock()
	return n
}

// crash closes a node and removes its host, simulating a power-off. Safe to
// call from a FaultPlan task.
func (d *dhtNet) crash(name netem.NodeID) {
	d.mu.Lock()
	n := d.nodes[name]
	d.nodes[name] = nil
	d.mu.Unlock()
	if n != nil {
		n.Close()
	}
	d.inet.RemoveHost(name)
}

// restart brings a crashed node back with the same host name (hence the same
// overlay ID) and an empty record store, bootstrapping off boot. Safe to call
// from a FaultPlan task.
func (d *dhtNet) restart(name netem.NodeID, cfg overlay.Config, boot netem.NodeID) {
	host, err := d.inet.AddHost(name)
	if err != nil {
		d.t.Errorf("restart host %s: %v", name, err)
		return
	}
	cfg.Host = host
	cfg.Bootstrap = []netem.NodeID{boot}
	n, err := overlay.New(cfg)
	if err != nil {
		d.t.Errorf("restart node %s: %v", name, err)
		return
	}
	if err := n.Start(); err != nil {
		d.t.Errorf("restart start %s: %v", name, err)
		return
	}
	d.mu.Lock()
	d.nodes[name] = n
	d.mu.Unlock()
}

// buildCluster starts n nodes dht-0 … dht-<n-1>, all bootstrapped off dht-0,
// and lets the join lookups complete.
func (d *dhtNet) buildCluster(n int, cfg overlay.Config) {
	d.t.Helper()
	boot := []netem.NodeID{"dht-0"}
	for i := range n {
		c := cfg
		if i > 0 {
			c.Bootstrap = boot
		}
		d.addNode(netem.NodeID(fmt.Sprintf("dht-%d", i)), c)
	}
	d.fake.Sleep(100 * time.Millisecond)
}

func baseConfig() overlay.Config {
	return overlay.Config{
		K:          2,
		Alpha:      2,
		TTL:        8 * time.Second,
		Republish:  2 * time.Second,
		RPCTimeout: 100 * time.Millisecond,
	}
}

// lookupVia resolves aor through n and fails the test if the lookup does not
// complete within wait.
func (d *dhtNet) lookupVia(n *overlay.Node, aor string, wait time.Duration) (string, bool) {
	d.t.Helper()
	v, err := n.Lookup(aor, wait)
	if errors.Is(err, overlay.ErrTimeout) {
		d.t.Fatalf("lookup %q did not complete within %v", aor, wait)
	}
	return v, err == nil
}

func TestOverlayPublishLookup(t *testing.T) {
	d := newDHTNet(t)
	defer d.close()
	d.buildCluster(8, baseConfig())

	d.node("dht-3").Publish("alice@dht.example", "10.9.9.1:5060")
	d.fake.Sleep(50 * time.Millisecond)

	if v, ok := d.lookupVia(d.node("dht-7"), "alice@dht.example", time.Second); !ok || v != "10.9.9.1:5060" {
		t.Fatalf("lookup alice = %q, %v; want 10.9.9.1:5060, true", v, ok)
	}
	if _, ok := d.lookupVia(d.node("dht-7"), "nobody@dht.example", time.Second); ok {
		t.Fatal("lookup for unpublished AOR succeeded")
	}
	// The binding landed on exactly K=2 replicas (publisher excluded — its
	// copy lives in the published set, not the record store).
	replicas := 0
	for _, id := range d.order {
		replicas += int(d.nodes[id].Stats().StoredRecords)
	}
	if replicas != 2 {
		t.Fatalf("binding on %d replicas, want 2", replicas)
	}
}

// TestOverlayRepublishHealsFullReplicaLoss kills every node storing a
// binding; the owner's next re-publication round must place fresh replicas
// on the surviving closest nodes.
func TestOverlayRepublishHealsFullReplicaLoss(t *testing.T) {
	d := newDHTNet(t)
	defer d.close()
	d.buildCluster(16, baseConfig())

	d.node("dht-0").Publish("alice@dht.example", "10.9.9.1:5060")
	d.fake.Sleep(50 * time.Millisecond)

	var storers []netem.NodeID
	for _, id := range d.order {
		if d.nodes[id].Stats().StoredRecords > 0 {
			storers = append(storers, id)
		}
	}
	if len(storers) != 2 {
		t.Fatalf("found %d replicas, want 2", len(storers))
	}
	for _, id := range storers {
		d.crash(id)
	}
	// One full republish interval plus slack for the placement lookup.
	d.fake.Sleep(2*time.Second + 500*time.Millisecond)

	if v, ok := d.lookupVia(d.node("dht-15"), "alice@dht.example", time.Second); !ok || v != "10.9.9.1:5060" {
		t.Fatalf("lookup after replica loss = %q, %v; want hit", v, ok)
	}
}

// TestOverlayUnpublishExpires verifies bindings die by TTL once the owner
// stops re-publishing — replica repair must not keep them alive forever.
func TestOverlayUnpublishExpires(t *testing.T) {
	d := newDHTNet(t)
	defer d.close()
	cfg := baseConfig()
	cfg.TTL = 3 * time.Second
	cfg.Republish = time.Second
	d.buildCluster(8, cfg)

	d.node("dht-2").Publish("bob@dht.example", "10.9.9.2:5060")
	d.fake.Sleep(50 * time.Millisecond)
	if _, ok := d.lookupVia(d.node("dht-6"), "bob@dht.example", time.Second); !ok {
		t.Fatal("binding not visible after publish")
	}
	d.node("dht-2").Unpublish("bob@dht.example")
	d.fake.Sleep(5 * time.Second)
	if v, ok := d.lookupVia(d.node("dht-6"), "bob@dht.example", time.Second); ok {
		t.Fatalf("binding still resolvable %v after unpublish: %q", 5*time.Second, v)
	}
}

// TestOverlayGoroutinesIndependentOfN pins the event-loop property: overlay
// nodes own no goroutines — the steady count is the scheduler's shards plus
// the Internet's delivery workers, whatever the fleet size.
func TestOverlayGoroutinesIndependentOfN(t *testing.T) {
	measure := func(n int) int {
		d := newDHTNet(t)
		defer d.close()
		d.buildCluster(n, baseConfig())
		runtime.Gosched()
		return runtime.NumGoroutine()
	}
	small := measure(4)
	large := measure(32)
	if large > small+2 {
		t.Fatalf("goroutines grew with overlay size: %d nodes -> %d, %d nodes -> %d", 4, small, 32, large)
	}
}
