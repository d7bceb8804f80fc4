package slp

import (
	"errors"
	"testing"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/routing"
)

// lookupUntilSettled starts a lookup until settled of a SIP key and returns
// where its result goes. A lookup the table answers has its result there
// before this returns.
func lookupUntilSettled(a *Agent, key string, timeout time.Duration) <-chan lookupResult {
	out := make(chan lookupResult, 1)
	a.LookupAsyncUntilSettled("sip", key, timeout, func(svc Service, err error) { out <- lookupResult{svc, err} })
	return out
}

// over reports the result of a lookup that has ended, or false if it still
// waits.
func over(out <-chan lookupResult) (lookupResult, bool) {
	select {
	case r := <-out:
		return r, true
	default:
		return lookupResult{}, false
	}
}

// tellDigest hands a the digest d as neighbour from's routing message would.
func tellDigest(a *Agent, from netem.NodeID, d Digest) {
	a.Incoming(routing.Incoming{From: from, Ext: (&Payload{Digest: &d}).Marshal()})
}

// broadcastTo hands from's next broadcast extension to each of to: its
// digest and the adverts its table owes.
func broadcastTo(from *Agent, to ...*Agent) {
	ext := from.Outgoing(routing.Outgoing{Dst: netem.Broadcast, Budget: meshBudget})
	for _, a := range to {
		a.Incoming(routing.Incoming{From: from.host.ID(), Ext: ext})
	}
}

// TestSettlingDigestEndsLookup: a lookup until settled of a key nobody holds
// ends at once on a table that agrees with every neighbour's, and otherwise at
// the digest that makes it agree; neither miss is remembered. A plain
// LookupAsync of the same key waits the network out.
func TestSettlingDigestEndsLookup(t *testing.T) {
	agents, fc := newMesh(t, 3)
	a, b, c := agents[0], agents[1], agents[2]
	const carol = "carol@voicehoc.ch"
	if err := b.Register(Service{Type: "sip", Key: "bob@manet", URL: ServiceURL("sip", "m.1:5060")}); err != nil {
		t.Fatal(err)
	}
	say(t, b, a) // a learns bob and agrees with b

	// Settled: the lookup ends as it is made.
	start := fc.Now()
	for i := 1; i <= 2; i++ {
		r, ok := over(lookupUntilSettled(a, carol, 500*time.Millisecond))
		if !ok || !errors.Is(r.err, ErrNotFound) {
			t.Fatalf("lookup %d on a settled table: ended %v with %v, want ErrNotFound at once", i, ok, r.err)
		}
	}
	if s := a.Stats(); s.SettledMisses != 2 || s.NegativeHits != 0 || !fc.Now().Equal(start) {
		t.Fatalf("after two settled misses: %+v, %v of virtual time; want 2 settled misses, none remembered, no time", s, fc.Now().Sub(start))
	}
	if a.cache.missed(cacheKey{"sip", carol}, 500*time.Millisecond, fc.Now()) {
		t.Fatal("a settled miss went into the miss set")
	}
	if _, ok := over(lookupOnNetwork(a, carol)); ok {
		t.Fatal("a plain LookupAsync ended on a settled table; only a lookup until settled may")
	}

	// c, whose digest differs, unsettles the table; the lookup waits.
	tellDigest(a, c.host.ID(), Digest{})
	out := lookupUntilSettled(a, carol, 500*time.Millisecond)
	if _, ok := over(out); ok {
		t.Fatal("lookup ended on a table that disagrees with neighbour c")
	}
	fc.Sleep(40 * time.Millisecond)
	broadcastTo(a, c) // c learns bob
	if _, ok := over(out); ok {
		t.Fatal("lookup ended before c's digest agreed")
	}
	say(t, c, a)
	r, ok := over(out)
	if !ok || !errors.Is(r.err, ErrNotFound) {
		t.Fatalf("lookup at c's agreeing digest: ended %v with %v, want ErrNotFound", ok, r.err)
	}
	if got := fc.Now().Sub(start); got != 40*time.Millisecond {
		t.Fatalf("lookup ended after %v, want at the settling digest, 40ms", got)
	}
	if s := a.Stats(); s.SettledMisses != 3 || s.NegativeHits != 0 {
		t.Fatalf("stats = %+v, want 3 settled misses and no remembered one", s)
	}
	if a.waiting() != 1 { // the plain lookup
		t.Fatalf("%d lookups wait, want only the plain one", a.waiting())
	}
}

// lookupOnNetwork starts a plain LookupAsync of a SIP key that waits 2 s.
func lookupOnNetwork(a *Agent, key string) <-chan lookupResult {
	out := make(chan lookupResult, 1)
	a.LookupAsync("sip", key, 2*time.Second, func(svc Service, err error) { out <- lookupResult{svc, err} })
	return out
}

// TestQuietNeighbourBlocksSettle: a neighbour whose last digest differs holds
// the table unsettled for as long as it is remembered, however often the
// others agree; after refreshInterval of silence it is forgotten, and the next
// agreeing digest ends the lookup. A newcomer's digest drops it from the
// table of neighbours.
func TestQuietNeighbourBlocksSettle(t *testing.T) {
	agents, fc := newMesh(t, 4)
	a, b, c, d := agents[0], agents[1], agents[2], agents[3]
	refresh := a.refreshInterval()
	say(t, b, a)
	tellDigest(a, c.host.ID(), Digest{Count: 1, Hash: 7})
	quietSince := fc.Now()
	out := lookupUntilSettled(a, "carol@voicehoc.ch", 3*refresh)
	for fc.Now().Sub(quietSince) <= refresh {
		if _, ok := over(out); ok {
			t.Fatalf("lookup ended %v after quiet c's differing digest, inside %v", fc.Now().Sub(quietSince), refresh)
		}
		fc.Sleep(time.Second)
		say(t, b, a)
	}
	r, ok := over(out)
	if !ok || !errors.Is(r.err, ErrNotFound) {
		t.Fatalf("lookup %v after c fell quiet: ended %v with %v, want ErrNotFound", fc.Now().Sub(quietSince), ok, r.err)
	}
	if got := fc.Now().Sub(quietSince); got != refresh+time.Second {
		t.Fatalf("lookup ended %v after c fell quiet, want at b's first digest past %v", got, refresh)
	}
	say(t, d, a)
	a.cache.mu.Lock()
	_, kept := a.cache.nbrs[c.host.ID()]
	n := len(a.cache.nbrs)
	a.cache.mu.Unlock()
	if kept || n != 2 {
		t.Fatalf("after newcomer d: c kept = %v, %d neighbours; want c dropped, b and d", kept, n)
	}
}

// TestHeardDigestAllocFree pins the cost of recording a known neighbour's
// digest, which every routing message with an extension pays: nothing.
func TestHeardDigestAllocFree(t *testing.T) {
	agents, fc := newMesh(t, 2)
	a, b := agents[0], agents[1]
	registerN(t, b, "u", 4)
	say(t, b, a)
	d, from, now, life := a.cache.digest(fc.Now()), b.host.ID(), fc.Now(), a.refreshInterval()
	if allocs := testing.AllocsPerRun(1000, func() { a.cache.heardDigest(from, d, now, life) }); allocs != 0 {
		t.Fatalf("heardDigest of a known neighbour: %v allocations, want 0", allocs)
	}
}

// TestOwnRegistrationKeepsTableSettled: a node's own new registration, which
// its neighbours cannot have heard yet, does not unsettle its table: a
// neighbour whose digest is ours without our own registrations that still owe
// broadcasts agrees. So a lookup until settled placed right after the caller's own
// Register ends as a miss at once, without waiting for the neighbour to echo
// the registration. Once the registration's broadcasts are sent, the
// neighbour's older digest no longer agrees, and its next digest settles the
// table again.
func TestOwnRegistrationKeepsTableSettled(t *testing.T) {
	agents, fc := newMesh(t, 2)
	a, b := agents[0], agents[1]
	const carol = "carol@voicehoc.ch"
	if err := b.Register(Service{Type: "sip", Key: "bob@manet", URL: ServiceURL("sip", "m.1:5060")}); err != nil {
		t.Fatal(err)
	}
	say(t, b, a) // a learns bob
	say(t, a, b) // and pays the two broadcasts it owes bob
	say(t, a, b)
	if err := a.Register(Service{Type: "sip", Key: "alice@manet", URL: ServiceURL("sip", "m.0:5060")}); err != nil {
		t.Fatal(err)
	}
	start := fc.Now()
	r, ok := over(lookupUntilSettled(a, carol, 500*time.Millisecond))
	if !ok || !errors.Is(r.err, ErrNotFound) || !fc.Now().Equal(start) {
		t.Fatalf("lookup right after a's own Register: ended %v with %v after %v, want ErrNotFound at once", ok, r.err, fc.Now().Sub(start))
	}
	if s := a.Stats(); s.SettledMisses != 1 {
		t.Fatalf("stats = %+v, want 1 settled miss", s)
	}

	// a has told b of alice twice and owes nothing; b's last digest, from
	// before, differs, and only b's next one settles the table.
	say(t, a, b)
	say(t, a, b)
	out := lookupUntilSettled(a, carol, 500*time.Millisecond)
	if _, ok := over(out); ok {
		t.Fatal("lookup ended while b's last digest lacks an entry a no longer owes")
	}
	fc.Sleep(20 * time.Millisecond)
	say(t, b, a)
	if r, ok := over(out); !ok || !errors.Is(r.err, ErrNotFound) {
		t.Fatalf("lookup at b's echoing digest: ended %v with %v, want ErrNotFound", ok, r.err)
	}
}
