package siphoc

import "testing"

func TestScenarioErrorPaths(t *testing.T) {
	sc, err := NewScenarioWith()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.AddNode("n1", Position{}); err != nil {
		t.Fatal(err)
	}
	// Duplicate node ID.
	if _, err := sc.AddNode("n1", Position{}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	// Gateway without an Internet.
	if _, err := sc.AddNode("gw", Position{}, WithGateway()); err == nil {
		t.Fatal("gateway without Internet accepted")
	}
	// Provider without an Internet.
	if _, err := sc.AddProvider(ProviderConfig{Domain: "x.ch"}); err == nil {
		t.Fatal("provider without Internet accepted")
	}
	// Internet phone without an Internet.
	if _, err := sc.AddInternetPhone("u", "x.ch", "h"); err == nil {
		t.Fatal("internet phone without Internet accepted")
	}
	// Unknown routing kind.
	bad, err := NewScenarioWith(WithRoutingKind(RoutingKind(99)))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.AddNode("n2", Position{}); err == nil {
		t.Fatal("unknown routing kind accepted")
	}
}

func TestScenarioNodeAccessors(t *testing.T) {
	sc, err := NewScenarioWith(WithRoutingKind(RoutingOLSR))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	n, err := sc.AddNode("10.0.0.1", Position{X: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Node("10.0.0.1") != n {
		t.Fatal("Node lookup mismatch")
	}
	if sc.Node("ghost") != nil {
		t.Fatal("ghost node found")
	}
	if got := sc.Nodes(); len(got) != 1 || got[0] != n {
		t.Fatalf("Nodes() = %v", got)
	}
	if n.ID() != "10.0.0.1" || n.RoutingName() != "OLSR" {
		t.Fatalf("accessors: id=%v routing=%v", n.ID(), n.RoutingName())
	}
	if n.Gateway() != nil {
		t.Fatal("non-gateway has a Gateway Provider")
	}
	if n.ConnectionProvider() == nil {
		t.Fatal("node lacks a Connection Provider")
	}
	if n.InternetAttached() {
		t.Fatal("isolated node claims Internet attachment")
	}
	if n.Host() == nil || n.SLP() == nil || n.Proxy() == nil || n.Routing() == nil {
		t.Fatal("nil component accessor")
	}
}

func TestScenarioRemoveNodeAndClose(t *testing.T) {
	sc, err := NewScenarioWith()
	if err != nil {
		t.Fatal(err)
	}
	n, err := sc.AddNode("x", Position{})
	if err != nil {
		t.Fatal(err)
	}
	_ = n
	sc.RemoveNode("x")
	if sc.Node("x") != nil {
		t.Fatal("removed node still present")
	}
	sc.RemoveNode("x") // idempotent
	sc.Close()
	sc.Close() // idempotent
	if _, err := sc.AddNode("y", Position{}); err == nil {
		t.Fatal("AddNode after Close accepted")
	}
}

func TestWithoutConnectionProviderOption(t *testing.T) {
	sc, err := NewScenarioWith()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	n, err := sc.AddNode("iso", Position{}, WithoutConnectionProvider())
	if err != nil {
		t.Fatal(err)
	}
	if n.ConnectionProvider() != nil {
		t.Fatal("connection provider present despite option")
	}
}

func TestRoutingKindString(t *testing.T) {
	if RoutingAODV.String() != "AODV" || RoutingOLSR.String() != "OLSR" {
		t.Fatal("routing names wrong")
	}
	if RoutingKind(9).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}
