package siphoc

import (
	"testing"
	"time"
)

// TestTwoGatewaysCoexist verifies the multi-gateway extension: several
// gateway services live in the SLP caches simultaneously, and when the one
// in use dies the Connection Provider fails over to the survivor without a
// new gateway having to appear.
func TestTwoGatewaysCoexist(t *testing.T) {
	sc, err := NewScenarioWith(WithInternet(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	prov, err := sc.AddProvider(ProviderConfig{Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	prov.AddAccount("alice")
	node, err := sc.AddNode("10.0.0.1", Position{})
	if err != nil {
		t.Fatal(err)
	}
	gw1, err := sc.AddNode("10.0.0.2", Position{X: 50}, WithGateway())
	if err != nil {
		t.Fatal(err)
	}
	gw2, err := sc.AddNode("10.0.0.3", Position{X: 60}, WithGateway())
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.WaitAttached(node, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Both gateway services must be visible in the node's SLP cache.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(node.SLP().AppendServices(nil, "gateway")) >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := node.SLP().AppendServices(nil, "gateway"); len(got) < 2 {
		t.Fatalf("gateway services visible = %d, want 2: %+v", len(got), got)
	}
	// Kill whichever gateway is in use; the node must fail over to the
	// survivor (whose advert is already cached).
	used := node.ConnectionProvider().Gateway()
	var survivor NodeID
	switch used {
	case gw1.ID():
		survivor = gw2.ID()
	case gw2.ID():
		survivor = gw1.ID()
	default:
		t.Fatalf("attached via unknown gateway %q", used)
	}
	sc.RemoveNode(used)
	deadline = time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if node.InternetAttached() && node.ConnectionProvider().Gateway() == survivor {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("never failed over to %s (attached=%v via %q)",
		survivor, node.InternetAttached(), node.ConnectionProvider().Gateway())
}
