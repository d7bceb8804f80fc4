package slp

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/routing"
)

func TestWildcardLookupCached(t *testing.T) {
	_, agents, _ := buildChain(t, 1, ModePiggyback)
	a := agents[0]
	if _, ok := a.LookupCached("gateway", ""); ok {
		t.Fatal("wildcard hit on empty cache")
	}
	if err := a.Register(Service{Type: "gateway", Key: "10.0.0.1", URL: "service:gateway://10.0.0.1:9000"}); err != nil {
		t.Fatal(err)
	}
	svc, ok := a.LookupCached("gateway", "")
	if !ok || svc.Key != "10.0.0.1" {
		t.Fatalf("wildcard = %+v %v", svc, ok)
	}
	// Wildcard must not leak across types.
	if _, ok := a.LookupCached("sip", ""); ok {
		t.Fatal("wildcard crossed service types")
	}
}

func TestWildcardQueryAnsweredRemotely(t *testing.T) {
	hosts, agents, _ := buildChain(t, 3, ModePiggyback)
	// The far node registers a gateway service under its own key.
	if err := agents[2].Register(Service{
		Type: "gateway", Key: string(hosts[2].ID()),
		URL: ServiceURL("gateway", string(hosts[2].ID())+":9000"),
	}); err != nil {
		t.Fatal(err)
	}
	// A wildcard lookup from the first node resolves it.
	svc, err := agents[0].Lookup("gateway", "", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Origin != hosts[2].ID() {
		t.Fatalf("origin = %v", svc.Origin)
	}
}

func TestMultipleServicesSameTypeCoexist(t *testing.T) {
	_, agents, _ := buildChain(t, 1, ModePiggyback)
	a := agents[0]
	for _, id := range []string{"gw1", "gw2", "gw3"} {
		if err := a.Register(Service{Type: "gateway", Key: id, URL: "service:gateway://" + id + ":9000"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.AppendServices(nil, "gateway"); len(got) != 3 {
		t.Fatalf("services = %d, want 3", len(got))
	}
}

// TestWildcardAnswerIsFreshest is the regression test for wildcard answers
// that followed Go's randomised map order: with two gateways cached, a node's
// own wildcard lookup and a relay's answer to a wildcard query both name the
// freshest advert — the one that expires last — on every one of 100 tries,
// and the lesser key between two that expire together.
func TestWildcardAnswerIsFreshest(t *testing.T) {
	a, fc := newShardAgent(t, Config{})
	now := fc.Now()
	gateway := func(id string, ttl time.Duration) Service {
		return Service{Type: "gateway", Key: id, URL: ServiceURL("gateway", id+":9000"),
			Origin: netem.NodeID(id), Seq: 1, Expires: now.Add(ttl)}
	}
	for _, svc := range []Service{gateway("10.0.0.1", 20*time.Second), gateway("10.0.0.9", 30*time.Second), gateway("10.0.0.5", 10*time.Second)} {
		a.cache.upsert(svc)
	}
	for i := 0; i < 100; i++ {
		if svc, ok := a.LookupCached("gateway", ""); !ok || svc.Key != "10.0.0.9" {
			t.Fatalf("lookup %d answered %q, want the freshest gateway 10.0.0.9", i, svc.Key)
		}
		if svc, ok := a.queryMatch(Query{Type: "gateway"}, now); !ok || svc.Key != "10.0.0.9" {
			t.Fatalf("relay answer %d names %q, want the freshest gateway 10.0.0.9", i, svc.Key)
		}
	}
	a.cache.upsert(gateway("10.0.0.3", 30*time.Second))
	for i := 0; i < 100; i++ {
		if svc, ok := a.LookupCached("gateway", ""); !ok || svc.Key != "10.0.0.3" {
			t.Fatalf("lookup %d answered %q, want 10.0.0.3, the lesser key of two that expire together", i, svc.Key)
		}
	}
}

// TestAppendServicesFreshestFirst pins the order a Connection Provider tries
// gateways in, the same a wildcard lookup answers in.
func TestAppendServicesFreshestFirst(t *testing.T) {
	a, fc := newShardAgent(t, Config{})
	now := fc.Now()
	for i, ttl := range []time.Duration{20, 30, 10, 30} {
		id := fmt.Sprintf("10.0.0.%d", i+1)
		a.cache.upsert(Service{Type: "gateway", Key: id, URL: ServiceURL("gateway", id+":9000"),
			Origin: netem.NodeID(id), Seq: 1, Expires: now.Add(ttl * time.Second)})
	}
	a.cache.upsert(Service{Type: "sip", Key: "alice@x", URL: "service:sip://10.0.0.1:5060", Seq: 1, Expires: now.Add(time.Hour)})
	got := a.AppendServices([]Service{{Key: "kept"}}, "gateway")
	var keys []string
	for _, svc := range got {
		keys = append(keys, svc.Key)
	}
	if want := []string{"kept", "10.0.0.2", "10.0.0.4", "10.0.0.1", "10.0.0.3"}; !slices.Equal(keys, want) {
		t.Fatalf("AppendServices = %v, want %v", keys, want)
	}
}

// TestRelayedWildcardQueryAllocFree pins what a relay does with a gateway
// query from a node of its network — dedup, no answer, into the relay set,
// out again on its next routing message — at no allocation: what it keeps of
// the query are strings it already holds. The extension it arrives in is
// overwritten after each delivery, as a recycled frame is, and the relayed
// copy must not notice.
func TestRelayedWildcardQueryAllocFree(t *testing.T) {
	a, fc := newShardAgent(t, Config{})
	origin, err := a.host.Network().AddHost("10.0.0.7", netem.Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	exts := make([][]byte, runs+2)
	for i := range exts {
		exts[i] = (&Payload{Queries: []Query{{Type: "gateway", Origin: origin.ID(), ID: uint32(i + 1), Hops: 8}}}).Marshal()
	}
	frame := make([]byte, 0, 64)
	out := make([]byte, 0, netem.MTU)
	i := 0
	relay := func() {
		frame = append(frame[:0], exts[i]...)
		a.Incoming(routing.Incoming{From: origin.ID(), Ext: frame})
		for j := range frame {
			frame[j] = 0xDB
		}
		out = a.AppendOutgoing(out[:0], routing.Outgoing{Dst: netem.Broadcast, Budget: 1000})
		fc.Sleep(4 * queryRelayTTL) // past the relay TTL and the dedup retention
		i++
	}
	relay()
	if allocs := testing.AllocsPerRun(runs, relay); allocs != 0 {
		t.Errorf("%v allocations per relayed wildcard query, want 0", allocs)
	}
	p, err := ParsePayload(out)
	if err != nil {
		t.Fatal(err)
	}
	want := Query{Type: "gateway", Origin: origin.ID(), ID: uint32(i), Hops: 7}
	if len(p.Queries) != 1 || p.Queries[0] != want {
		t.Fatalf("relayed %+v, want %+v", p.Queries, want)
	}
	if got := a.Stats().QueriesRelayed; got != int64(i) {
		t.Fatalf("QueriesRelayed = %d after %d queries", got, i)
	}
}

// TestLookupRecycled: a lookup that ends — at its deadline, or on an advert
// committed from another goroutine — calls its tasks off instead of leaving
// them queued, goes back on the free list, and is what the next lookup gets.
func TestLookupRecycled(t *testing.T) {
	for _, mode := range []Mode{ModePiggyback, ModeMulticast} {
		a, fc := newShardAgent(t, Config{Mode: mode})
		sched := a.host.Sched()
		ended := make(chan error, 1)
		done := func(_ Service, err error) { ended <- err }
		spare := func() []*lookup {
			a.qmu.Lock()
			defer a.qmu.Unlock()
			return slices.Clone(a.spareL)
		}

		a.LookupAsync("gateway", "", time.Second, done)
		fc.Sleep(time.Second)
		if err := <-ended; err == nil {
			t.Fatalf("mode %d: a lookup of nothing succeeded", mode)
		}
		first := spare()
		if len(first) != 1 || sched.Pending() != 0 {
			t.Fatalf("mode %d: after a miss, %d spare lookups and %d tasks queued; want 1 and 0", mode, len(first), sched.Pending())
		}

		a.LookupAsync("gateway", "", time.Second, done)
		if a.lookupsLen() != 1 || len(spare()) != 0 {
			t.Fatalf("mode %d: the next lookup did not take the spare one", mode)
		}
		a.cache.upsert(Service{Type: "gateway", Key: "10.0.0.1", URL: ServiceURL("gateway", "10.0.0.1:9000"),
			Origin: "10.0.0.1", Seq: 1, Expires: fc.Now().Add(time.Minute)})
		if err := <-ended; err != nil {
			t.Fatalf("mode %d: lookup answered by an advert: %v", mode, err)
		}
		if got := spare(); len(got) != 1 || got[0] != first[0] || sched.Pending() != 0 {
			t.Fatalf("mode %d: after an answer, spare lookups %v (first %p) and %d tasks queued; want the same one and 0", mode, got, first[0], sched.Pending())
		}
	}
}

func (a *Agent) lookupsLen() int {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	return len(a.lookups)
}
