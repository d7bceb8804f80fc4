package slp

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
)

type lookupResult struct {
	svc Service
	err error
}

// lookupForm is one of the two entrances of the one lookup: the blocking call,
// on a goroutine of its own, or the callback call, made in place. Every case
// below runs through both and must not be able to tell them apart.
type lookupForm func(a *Agent, stype, key string, timeout time.Duration, done func(Service, error))

var lookupForms = map[string]lookupForm{
	"Lookup": func(a *Agent, stype, key string, timeout time.Duration, done func(Service, error)) {
		go func() { done(a.Lookup(stype, key, timeout)) }()
	},
	"LookupAsync": (*Agent).LookupAsync,
}

// eachForm runs fn as a subtest per lookup form, on a fresh agent each.
func eachForm(t *testing.T, cfg Config, fn func(t *testing.T, look lookupForm, a *Agent, fc *clock.Fake)) {
	for name, look := range lookupForms {
		t.Run(name, func(t *testing.T) {
			a, fc := newShardAgent(t, cfg)
			fn(t, look, a, fc)
		})
	}
}

// waiting returns how many lookups are waiting on the network.
func (a *Agent) waiting() int {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	return len(a.lookups)
}

// lookupAsync starts n concurrent lookups of one key and returns once all of
// them are waiting on the network, so the caller can sleep on the fake clock
// or deliver an advert knowing every lookup is in its wait.
func lookupAsync(t *testing.T, look lookupForm, a *Agent, n int, stype, key string, timeout time.Duration) <-chan lookupResult {
	t.Helper()
	before := a.waiting()
	out := make(chan lookupResult, n)
	for i := 0; i < n; i++ {
		look(a, stype, key, timeout, func(svc Service, err error) { out <- lookupResult{svc, err} })
	}
	for deadline := time.Now().Add(5 * time.Second); a.waiting() < before+n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d lookups of %s/%s wait on the network", a.waiting()-before, n, stype, key)
		}
	}
	return out
}

// result waits, in real time, for a lookup the test has just released.
func result(t *testing.T, out <-chan lookupResult) lookupResult {
	t.Helper()
	select {
	case r := <-out:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("lookup never ended")
		return lookupResult{}
	}
}

// lookupOnce runs one lookup that what the agent already knows answers.
func lookupOnce(t *testing.T, look lookupForm, a *Agent, stype, key string, timeout time.Duration) (Service, error) {
	t.Helper()
	out := make(chan lookupResult, 1)
	look(a, stype, key, timeout, func(svc Service, err error) { out <- lookupResult{svc, err} })
	r := result(t, out)
	return r.svc, r.err
}

// missOnNetwork runs one lookup that has to query the network, lets its
// timeout pass in virtual time and checks it came back ErrNotFound.
func missOnNetwork(t *testing.T, look lookupForm, a *Agent, fc *clock.Fake, stype, key string, timeout time.Duration) {
	t.Helper()
	out := lookupAsync(t, look, a, 1, stype, key, timeout)
	fc.Sleep(timeout)
	if r := result(t, out); !errors.Is(r.err, ErrNotFound) {
		t.Fatalf("lookup %s/%s = %+v, %v; want ErrNotFound", stype, key, r.svc, r.err)
	}
}

// missAtOnce checks that a lookup is answered from a remembered miss: it
// ends ErrNotFound without queueing a task, so no virtual time can have
// passed.
func missAtOnce(t *testing.T, look lookupForm, a *Agent, fc *clock.Fake, stype, key string, timeout time.Duration) {
	t.Helper()
	before, hits, queued := fc.Now(), a.Stats().NegativeHits, a.host.Sched().Pending()
	out := make(chan lookupResult, 1)
	look(a, stype, key, timeout, func(svc Service, err error) { out <- lookupResult{svc, err} })
	select {
	case r := <-out:
		if !errors.Is(r.err, ErrNotFound) {
			t.Fatalf("lookup %s/%s err = %v, want ErrNotFound", stype, key, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("lookup %s/%s (timeout %v) waits on the network despite a remembered miss", stype, key, timeout)
	}
	if !fc.Now().Equal(before) || a.host.Sched().Pending() > queued {
		t.Fatalf("remembered miss took virtual time: %v, %d tasks queued", fc.Now().Sub(before), a.host.Sched().Pending()-queued)
	}
	if got := a.Stats().NegativeHits; got != hits+1 {
		t.Fatalf("NegativeHits = %d, want %d", got, hits+1)
	}
}

func advertFor(key string, seq uint32) *Payload {
	return &Payload{Adverts: []Advert{{
		Type: "sip", Key: key, URL: ServiceURL("sip", "10.0.0.9:5060"),
		Origin: "10.0.0.9", Seq: seq, TTL: 30 * time.Second,
	}}}
}

func TestNegativeCacheRemembersMiss(t *testing.T) {
	eachForm(t, Config{}, func(t *testing.T, look lookupForm, a *Agent, fc *clock.Fake) {
		const key = "carol@voicehoc.ch"
		attached, detached := 500*time.Millisecond, 2*time.Second

		missOnNetwork(t, look, a, fc, "sip", key, attached)
		missAtOnce(t, look, a, fc, "sip", key, attached)
		missAtOnce(t, look, a, fc, "sip", key, attached/2)
		// A remembered miss counts as a lookup and never as a cache hit.
		if s := a.Stats(); s.Lookups != 3 || s.CacheHits != 0 || s.NegativeHits != 2 {
			t.Fatalf("stats = %+v, want 3 lookups, 0 cache hits, 2 negative hits", s)
		}

		// A lookup willing to wait longer than the miss did queries the network,
		// and its own miss then covers both timeouts.
		missOnNetwork(t, look, a, fc, "sip", key, detached)
		missAtOnce(t, look, a, fc, "sip", key, detached)
		missAtOnce(t, look, a, fc, "sip", key, attached)

		// A shorter miss noted while the longer one is fresh must not weaken it.
		a.cache.noteMiss(cacheKey{"sip", key}, attached, fc.Now(), a.refreshInterval())
		missAtOnce(t, look, a, fc, "sip", key, detached)

		// One refresh interval later the miss is forgotten and the key is
		// queried again under a fresh query ID.
		fc.Sleep(a.refreshInterval())
		a.qmu.Lock()
		qid := a.qid
		a.qmu.Unlock()
		missOnNetwork(t, look, a, fc, "sip", key, attached)
		a.qmu.Lock()
		if a.qid != qid+1 {
			t.Errorf("expired miss re-queried under id %d, want %d", a.qid, qid+1)
		}
		a.qmu.Unlock()
	})
}

// TestNegativeCacheYieldsToAdvert is the late-registration property: once an
// advert for a missed key is in the cache (piggyback, unicast reply or local
// Register) the key resolves at once, and the advert retires the miss so a
// later eviction re-queries instead of repeating a stale "not found".
func TestNegativeCacheYieldsToAdvert(t *testing.T) {
	eachForm(t, Config{}, func(t *testing.T, look lookupForm, a *Agent, fc *clock.Fake) {
		const key = "carol@voicehoc.ch"
		missOnNetwork(t, look, a, fc, "sip", key, time.Second)
		missAtOnce(t, look, a, fc, "sip", key, time.Second)

		a.handlePayload(advertFor(key, 1))
		svc, err := lookupOnce(t, look, a, "sip", key, time.Second)
		if err != nil || svc.Origin != "10.0.0.9" {
			t.Fatalf("lookup after advert = %+v, %v", svc, err)
		}
		if s := a.Stats(); s.CacheHits != 1 {
			t.Fatalf("stats = %+v, want the advert served as a cache hit", s)
		}

		a.Evict("sip", key)
		missOnNetwork(t, look, a, fc, "sip", key, time.Second)

		// Same for a registration on this node.
		missOnNetwork(t, look, a, fc, "sip", "dave@voicehoc.ch", time.Second)
		if err := a.Register(Service{Type: "sip", Key: "dave@voicehoc.ch", URL: ServiceURL("sip", "self:5060")}); err != nil {
			t.Fatal(err)
		}
		if _, err := lookupOnce(t, look, a, "sip", "dave@voicehoc.ch", time.Second); err != nil {
			t.Fatalf("lookup after local Register: %v", err)
		}
	})
}

func TestNegativeCacheSkipsWildcard(t *testing.T) {
	eachForm(t, Config{}, func(t *testing.T, look lookupForm, a *Agent, fc *clock.Fake) {
		// Gateway discovery polls with the empty key; every poll must query.
		for i := 0; i < 3; i++ {
			missOnNetwork(t, look, a, fc, "gateway", "", time.Second)
		}
		if s := a.Stats(); s.NegativeHits != 0 {
			t.Fatalf("wildcard lookup answered from the miss set: %+v", s)
		}
	})
}

func TestNegativeCacheBounded(t *testing.T) {
	a, fc := newShardAgent(t, Config{})
	// A zero timeout expires at once, so each lookup records its miss
	// without the clock moving: 10 000 live misses compete for the cap.
	for i := 0; i < 10000; i++ {
		if _, err := a.Lookup("sip", fmt.Sprintf("user%d@example", i), 0); !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	sizes := func() (int, int) {
		a.cache.mu.Lock()
		defer a.cache.mu.Unlock()
		return len(a.cache.misses), a.cache.missQ.Len()
	}
	if m, q := sizes(); m > missHardCap || q > missHardCap || m < missHardCap/2 {
		t.Fatalf("miss set holds %d keys (%d queued), cap %d", m, q, missHardCap)
	}
	// Past their lifetime the next miss drains them in deadline order.
	fc.Sleep(a.refreshInterval())
	if _, err := a.Lookup("sip", "late@example", 0); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if m, q := sizes(); m != 1 || q != 1 {
		t.Fatalf("miss set holds %d keys (%d queued) after every deadline passed, want 1", m, q)
	}
}

// TestMissSetExpiresOldestFirst: every miss lives one refresh interval, so
// the miss set forgets a burst in the order it was noted — on the insert
// after each deadline, and past missHardCap before any deadline.
func TestMissSetExpiresOldestFirst(t *testing.T) {
	const life = time.Second
	t0 := time.Unix(5_000_000, 0)
	key := func(i int) cacheKey { return cacheKey{"sip", fmt.Sprintf("user%d@example", i)} }
	held := func(c *cache, n int) (kept []int) {
		for i := range n {
			if _, ok := c.misses[key(i)]; ok {
				kept = append(kept, i)
			}
		}
		return kept
	}

	c := newCache()
	for i := range 10 {
		c.noteMiss(key(i), life, t0.Add(time.Duration(i)*time.Millisecond), life)
	}
	// At the fifth miss's deadline the next insert forgets the first five.
	c.noteMiss(key(10), life, t0.Add(life+4*time.Millisecond), life)
	if got, want := held(c, 11), []int{5, 6, 7, 8, 9, 10}; !slices.Equal(got, want) || c.missQ.Len() != len(want) {
		t.Fatalf("misses held %v (%d queued), want %v", got, c.missQ.Len(), want)
	}

	// A burst noted at one instant overflows the cap: the oldest go first.
	c = newCache()
	for i := range missHardCap + 3 {
		c.noteMiss(key(i), life, t0, life)
	}
	if got := held(c, missHardCap+3); len(got) != missHardCap || got[0] != 3 || c.missQ.Len() != missHardCap {
		t.Fatalf("after %d misses: %d held from %v on, %d queued; want %d held from 3 on", missHardCap+3, len(got), got[:min(1, len(got))], c.missQ.Len(), missHardCap)
	}
}

// outgoingQueries returns the queries the agent would piggyback right now.
func outgoingQueries(t *testing.T, a *Agent) []Query {
	t.Helper()
	ext := a.Outgoing(routing.Outgoing{Budget: 1200})
	if ext == nil {
		return nil
	}
	p, err := ParsePayload(ext)
	if err != nil {
		t.Fatal(err)
	}
	return p.Queries
}

func TestLookupCoalescing(t *testing.T) {
	eachForm(t, Config{}, func(t *testing.T, look lookupForm, a *Agent, fc *clock.Fake) {
		const key, n = "bob@voicehoc.ch", 16
		out := lookupAsync(t, look, a, n, "sip", key, 2*time.Second)
		qs := outgoingQueries(t, a)
		if len(qs) != 1 || qs[0].ID != 1 {
			t.Fatalf("%d concurrent lookups ride as %+v, want one query with id 1", n, qs)
		}
		// The one reply releases all of them.
		a.handlePayload(advertFor(key, 1))
		for i := 0; i < n; i++ {
			if r := <-out; r.err != nil || r.svc.Key != key {
				t.Fatalf("lookup %d = %+v, %v", i, r.svc, r.err)
			}
		}
		if qs := outgoingQueries(t, a); len(qs) != 0 {
			t.Fatalf("query still pending after every lookup returned: %+v", qs)
		}

		// The first lookup to give up must not take the shared query off the
		// air while another is still waiting on it.
		short := lookupAsync(t, look, a, 1, "sip", "erin@voicehoc.ch", 500*time.Millisecond)
		long := lookupAsync(t, look, a, 1, "sip", "erin@voicehoc.ch", 2*time.Second)
		fc.Sleep(500 * time.Millisecond)
		if r := <-short; !errors.Is(r.err, ErrNotFound) {
			t.Fatalf("short lookup = %v", r.err)
		}
		if qs := outgoingQueries(t, a); len(qs) != 1 || qs[0].ID != 2 {
			t.Fatalf("after the short lookup left, pending = %+v, want the shared query id 2", qs)
		}
		fc.Sleep(1500 * time.Millisecond)
		if r := <-long; !errors.Is(r.err, ErrNotFound) {
			t.Fatalf("long lookup = %v", r.err)
		}
		if qs := outgoingQueries(t, a); len(qs) != 0 {
			t.Fatalf("query still pending after the last lookup left: %+v", qs)
		}
	})
}

// TestLookupRefloods pins the multicast-mode retry: a lookup reissues its
// SrvRqst every timeout/3, each time under a fresh query ID, until it ends —
// as tasks now, where a select loop over three timers used to sit.
func TestLookupRefloods(t *testing.T) {
	eachForm(t, Config{Mode: ModeMulticast}, func(t *testing.T, look lookupForm, a *Agent, fc *clock.Fake) {
		const timeout = 900 * time.Millisecond
		out := lookupAsync(t, look, a, 1, "sip", "gone@voicehoc.ch", timeout)
		for floods := int64(1); floods <= 3; floods++ {
			for deadline := time.Now().Add(5 * time.Second); a.Stats().FloodsSent < floods; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("FloodsSent = %d at %v, want %d", a.Stats().FloodsSent, time.Duration(floods-1)*timeout/3, floods)
				}
			}
			fc.Sleep(timeout / 3)
		}
		if r := result(t, out); !errors.Is(r.err, ErrNotFound) {
			t.Fatalf("lookup = %+v, %v; want ErrNotFound", r.svc, r.err)
		}
		a.qmu.Lock()
		qid := a.qid
		a.qmu.Unlock()
		if s := a.Stats(); s.FloodsSent != 3 || qid != 3 {
			t.Fatalf("FloodsSent = %d under query IDs up to %d, want 3 floods with IDs 1..3", s.FloodsSent, qid)
		}
		// The lookup is over: nothing floods again.
		fc.Sleep(timeout)
		if s := a.Stats(); s.FloodsSent != 3 || a.waiting() != 0 {
			t.Fatalf("after the deadline: FloodsSent = %d, %d lookups waiting", s.FloodsSent, a.waiting())
		}
	})
}

// TestGossipRotation pins the starvation fix: a cache that does not fit one
// routing message must still reach a neighbour in full over successive
// messages, and a cache that fits is sent in the same bytes every time.
func TestGossipRotation(t *testing.T) {
	a, _ := newShardAgent(t, Config{})
	b, _ := newShardAgent(t, Config{})
	learn := func(n int) {
		for i := 0; i < n; i++ {
			a.handlePayload(&Payload{Adverts: []Advert{{
				Type: "sip", Key: fmt.Sprintf("user%02d@voicehoc.ch", i),
				URL:    ServiceURL("sip", fmt.Sprintf("10.0.1.%d:5060", i)),
				Origin: netem.NodeID(fmt.Sprintf("10.0.1.%d", i)), Seq: 1, TTL: 30 * time.Second,
			}}})
		}
	}
	const budget = 1200

	learn(8)
	first := a.Outgoing(routing.Outgoing{Budget: budget})
	if p, err := ParsePayload(first); err != nil || len(p.Adverts) != 8 {
		t.Fatalf("8 adverts do not fit budget %d: %v", budget, err)
	}
	if again := a.Outgoing(routing.Outgoing{Budget: budget}); string(again) != string(first) {
		t.Fatal("payload changed between calls although everything fits")
	}

	learn(64)
	for i := 0; i < 16 && len(b.AppendServices(nil, "sip")) < 64; i++ {
		ext := a.Outgoing(routing.Outgoing{Budget: budget})
		if len(ext) > budget {
			t.Fatalf("ext %d bytes over budget %d", len(ext), budget)
		}
		b.Incoming(routing.Incoming{From: "self", Ext: ext})
	}
	if got := len(b.AppendServices(nil, "sip")); got != 64 {
		t.Fatalf("neighbour learned %d of 64 services after 16 messages", got)
	}
}
