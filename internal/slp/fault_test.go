package slp

import (
	"testing"
	"time"

	"siphoc/internal/netem"
)

// TestFaultInvalidation pins the two fault-event hooks: Evict drops exactly
// one learned entry (never a local registration), and InvalidateOrigin drops
// everything learned from a crashed node while leaving other origins and the
// local table intact.
func TestFaultInvalidation(t *testing.T) {
	n := netem.NewNetwork(netem.Config{BaseDelay: 20 * time.Microsecond})
	defer n.Close()
	h, err := n.AddHost("10.0.0.1", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgent(h, Config{})
	if err := a.Register(Service{
		Type: "sip", Key: "me@voicehoc.ch",
		URL: ServiceURL("sip", "10.0.0.1:5060"),
	}); err != nil {
		t.Fatal(err)
	}
	a.handlePayload(&Payload{Adverts: []Advert{
		{Type: "sip", Key: "bob@voicehoc.ch", URL: ServiceURL("sip", "10.0.0.2:5060"), Origin: "10.0.0.2", Seq: 1, TTL: 30 * time.Second},
		{Type: "gateway", Key: "10.0.0.2", URL: ServiceURL("gateway", "10.0.0.2:9000"), Origin: "10.0.0.2", Seq: 2, TTL: 30 * time.Second},
		{Type: "sip", Key: "carol@voicehoc.ch", URL: ServiceURL("sip", "10.0.0.3:5060"), Origin: "10.0.0.3", Seq: 1, TTL: 30 * time.Second},
	}})

	// Evict removes exactly the named learned entry.
	a.Evict("sip", "bob@voicehoc.ch")
	if _, ok := a.LookupCached("sip", "bob@voicehoc.ch"); ok {
		t.Fatal("evicted entry still served")
	}
	if _, ok := a.LookupCached("sip", "carol@voicehoc.ch"); !ok {
		t.Fatal("unrelated entry evicted")
	}

	// Evict refuses to touch local registrations.
	a.Evict("sip", "me@voicehoc.ch")
	if _, ok := a.LookupCached("sip", "me@voicehoc.ch"); !ok {
		t.Fatal("local registration evicted")
	}

	// InvalidateOrigin drops the remaining entry from the crashed node.
	if got := a.InvalidateOrigin("10.0.0.2"); got != 1 {
		t.Fatalf("InvalidateOrigin evicted %d entries, want 1", got)
	}
	if _, ok := a.LookupCached("gateway", "10.0.0.2"); ok {
		t.Fatal("crashed node's gateway advert still served")
	}
	if _, ok := a.LookupCached("sip", "carol@voicehoc.ch"); !ok {
		t.Fatal("entry from a live origin evicted")
	}

	// Self-invalidation is a no-op: local registrations stay.
	if got := a.InvalidateOrigin("10.0.0.1"); got != 0 {
		t.Fatalf("self InvalidateOrigin evicted %d entries, want 0", got)
	}
	if _, ok := a.LookupCached("sip", "me@voicehoc.ch"); !ok {
		t.Fatal("self-invalidation dropped the local registration")
	}

	// A fresh advert re-installs an evicted entry (eviction is not a ban).
	a.handlePayload(&Payload{Adverts: []Advert{
		{Type: "sip", Key: "bob@voicehoc.ch", URL: ServiceURL("sip", "10.0.0.2:5060"), Origin: "10.0.0.2", Seq: 3, TTL: 30 * time.Second},
	}})
	if _, ok := a.LookupCached("sip", "bob@voicehoc.ch"); !ok {
		t.Fatal("re-advertised entry not re-installed")
	}
}
