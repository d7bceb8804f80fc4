package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/overlay"
	"siphoc/internal/routing"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
)

// stubDirectory is a canned ServiceDirectory for resolver tests: a fixed
// cache plus counters for which lookup path was taken.
type stubDirectory struct {
	cached  map[string]slp.Service
	net     map[string]slp.Service
	cacheQ  int
	netQ    int
	evicted []string
}

func (s *stubDirectory) Register(svc slp.Service) error { return nil }
func (s *stubDirectory) Deregister(stype, key string)   {}
func (s *stubDirectory) Evict(stype, key string) {
	s.evicted = append(s.evicted, stype+"/"+key)
}
func (s *stubDirectory) InvalidateOrigin(origin netem.NodeID) int { return 0 }

func (s *stubDirectory) LookupCached(stype, key string) (slp.Service, bool) {
	s.cacheQ++
	svc, ok := s.cached[stype+"/"+key]
	return svc, ok
}

func (s *stubDirectory) LookupAsync(stype, key string, timeout time.Duration, done func(slp.Service, error)) {
	if svc, ok := s.cached[stype+"/"+key]; ok {
		s.cacheQ++
		done(svc, nil)
		return
	}
	s.netQ++
	if svc, ok := s.net[stype+"/"+key]; ok {
		done(svc, nil)
		return
	}
	done(slp.Service{}, fmt.Errorf("stub: %s/%s not found", stype, key))
}

func (s *stubDirectory) LookupAsyncUntilSettled(stype, key string, timeout time.Duration, done func(slp.Service, error)) {
	s.LookupAsync(stype, key, timeout, done)
}

func (s *stubDirectory) AppendServices(dst []slp.Service, _ string) []slp.Service { return dst }
func (s *stubDirectory) OnInstall(func(string))                                   {}

func cachedSIP(aor, addr string) map[string]slp.Service {
	return map[string]slp.Service{
		SIPServiceType + "/" + aor: {
			Type: SIPServiceType,
			Key:  aor,
			URL:  slp.ServiceURL(SIPServiceType, addr),
		},
	}
}

func query(aor string, attached bool) ResolveQuery {
	uri := sip.MustParseURI("sip:" + aor)
	return ResolveQuery{URI: uri, AOR: aor, Attached: attached}
}

// kindResolver answers a fixed address for one AOR, for chain-order tests.
type kindResolver struct {
	kind string
	aor  string
	addr sip.Addr
}

func (r kindResolver) Kind() string { return r.kind }
func (r kindResolver) Resolve(q ResolveQuery, done func(sip.Addr, error)) {
	if q.AOR == r.aor {
		done(r.addr, nil)
		return
	}
	done(sip.Addr{}, ErrResolverMiss)
}

// resolved is one answer of a resolver or a chain.
type resolved struct {
	addr sip.Addr
	kind string
	err  error
}

// resolveNow walks chain for q and returns the answer, which must come before
// Resolve returns: every resolver on the way answers from memory.
func resolveNow(t *testing.T, chain ResolverChain, q ResolveQuery) (sip.Addr, string, bool) {
	t.Helper()
	var got *resolved
	chain.Resolve(q, func(addr sip.Addr, kind string, err error) { got = &resolved{addr, kind, err} })
	if got == nil {
		t.Fatalf("resolve %s did not answer at once", q.AOR)
	}
	return got.addr, got.kind, got.err == nil
}

// resolveOne is resolveNow for a single resolver.
func resolveOne(t *testing.T, r Resolver, q ResolveQuery) (sip.Addr, bool) {
	t.Helper()
	addr, _, ok := resolveNow(t, ResolverChain{r}, q)
	return addr, ok
}

// resolveWait walks chain for q and waits for the answer, which may come
// later on a scheduler worker.
func resolveWait(t *testing.T, chain ResolverChain, q ResolveQuery) resolved {
	t.Helper()
	ch := make(chan resolved, 1)
	chain.Resolve(q, func(addr sip.Addr, kind string, err error) { ch <- resolved{addr, kind, err} })
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("resolve %s never answered", q.AOR)
		return resolved{}
	}
}

func TestResolverChainFirstMatchWins(t *testing.T) {
	chain := ResolverChain{
		kindResolver{kind: "a", aor: "x@d.ch", addr: sip.Addr{Node: "n1", Port: 1}},
		kindResolver{kind: "b", aor: "x@d.ch", addr: sip.Addr{Node: "n2", Port: 2}},
		kindResolver{kind: "c", aor: "y@d.ch", addr: sip.Addr{Node: "n3", Port: 3}},
	}
	addr, kind, ok := resolveNow(t, chain, query("x@d.ch", false))
	if !ok || kind != "a" || addr.Node != "n1" {
		t.Fatalf("resolve x = %v %q %v, want first resolver", addr, kind, ok)
	}
	addr, kind, ok = resolveNow(t, chain, query("y@d.ch", false))
	if !ok || kind != "c" || addr.Node != "n3" {
		t.Fatalf("resolve y = %v %q %v, want third resolver", addr, kind, ok)
	}
	if _, _, ok := resolveNow(t, chain, query("z@d.ch", false)); ok {
		t.Fatal("resolved an AOR no resolver knows")
	}
}

func TestSLPResolverModes(t *testing.T) {
	dir := &stubDirectory{
		cached: cachedSIP("alice@voicehoc.ch", "10.0.0.1:5060"),
		net: map[string]slp.Service{
			SIPServiceType + "/bob@voicehoc.ch": {
				Type: SIPServiceType,
				Key:  "bob@voicehoc.ch",
				URL:  slp.ServiceURL(SIPServiceType, "10.0.0.2:5060"),
			},
		},
	}
	r := NewSLPResolver(dir, SLPResolverConfig{Timeout: time.Second, TimeoutAttached: 100 * time.Millisecond})

	if addr, ok := resolveOne(t, r, query("alice@voicehoc.ch", false)); !ok || addr.Node != "10.0.0.1" {
		t.Fatalf("cached resolve = %v %v", addr, ok)
	}
	if addr, ok := resolveOne(t, r, query("bob@voicehoc.ch", false)); !ok || addr.Node != "10.0.0.2" {
		t.Fatalf("network resolve = %v %v", addr, ok)
	}
	if dir.netQ != 1 {
		t.Fatalf("network queries = %d, want 1", dir.netQ)
	}

	// Cache-only mode must never hit the network: the miss that would have
	// triggered an epidemic query falls through instead.
	co := NewSLPResolver(dir, SLPResolverConfig{CacheOnly: true})
	if addr, ok := resolveOne(t, co, query("alice@voicehoc.ch", false)); !ok || addr.Node != "10.0.0.1" {
		t.Fatalf("cache-only hit = %v %v", addr, ok)
	}
	if _, ok := resolveOne(t, co, query("carol@voicehoc.ch", false)); ok {
		t.Fatal("cache-only resolver answered a cache miss")
	}
	if dir.netQ != 1 {
		t.Fatalf("cache-only mode queried the network (netQ=%d)", dir.netQ)
	}

	// Answers pointing back at the resolving proxy itself are rejected.
	self := NewSLPResolver(dir, SLPResolverConfig{
		CacheOnly: true,
		Self:      sip.Addr{Node: "10.0.0.1", Port: 5060},
	})
	if _, ok := resolveOne(t, self, query("alice@voicehoc.ch", false)); ok {
		t.Fatal("resolver returned its own proxy as next hop")
	}
}

func TestDNSResolverGating(t *testing.T) {
	r := NewDNSResolver(func(domain string) sip.Addr {
		return sip.Addr{Node: netem.NodeID(domain), Port: sip.DefaultPort}
	})
	if _, ok := resolveOne(t, r, query("alice@voicehoc.ch", false)); ok {
		t.Fatal("DNS resolver answered while detached")
	}
	if _, ok := resolveOne(t, r, query("alice@manet", true)); ok {
		t.Fatal("DNS resolver answered for a dotless (MANET-local) host")
	}
	if addr, ok := resolveOne(t, r, query("alice@voicehoc.ch", true)); !ok || addr.Node != "voicehoc.ch" {
		t.Fatalf("DNS resolve = %v %v", addr, ok)
	}
}

// stubOverlay is a canned OverlayDirectory: fixed bindings, an optional
// silence that never answers, and a lookup counter proving when the DHT was
// (not) consulted.
type stubOverlay struct {
	bindings map[string]string
	silent   bool
	lookups  int
}

func (s *stubOverlay) LookupAsync(aor string, cb func(string, bool)) {
	s.lookups++
	if s.silent {
		return
	}
	c, ok := s.bindings[aor]
	cb(c, ok)
}

func (s *stubOverlay) Publish(aor, contact string) {}
func (s *stubOverlay) Unpublish(aor string)        {}

// overlayHost is a host whose scheduler times the overlay resolver's lookups
// out.
func overlayHost(t *testing.T) *netem.Host {
	t.Helper()
	net := netem.NewNetwork(netem.Config{})
	t.Cleanup(net.Close)
	h, err := net.AddHost("10.0.0.1", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// overlayChain builds the paper-policy tail under test: SLP (cache-only),
// then overlay, then DNS — the registrar hop is irrelevant here.
func overlayChain(t *testing.T, dir *stubDirectory, ov *stubOverlay) ResolverChain {
	return ResolverChain{
		NewSLPResolver(dir, SLPResolverConfig{CacheOnly: true}),
		NewOverlayResolver(overlayHost(t), ov, OverlayResolverConfig{Timeout: 50 * time.Millisecond}),
		NewDNSResolver(func(domain string) sip.Addr {
			return sip.Addr{Node: netem.NodeID(domain), Port: sip.DefaultPort}
		}),
	}
}

// TestResolverChainOverlayOrdering pins the overlay hop's position in the
// chain: consulted only after an SLP miss, and beating DNS when it answers.
func TestResolverChainOverlayOrdering(t *testing.T) {
	cases := []struct {
		name        string
		aor         string
		attached    bool
		wantKind    string
		wantNode    netem.NodeID
		wantMiss    bool
		wantLookups int
	}{
		{
			// SLP answers first; the overlay must not even be consulted.
			name: "slp hit shadows overlay", aor: "alice@voicehoc.ch", attached: true,
			wantKind: "slp", wantNode: "10.0.0.1", wantLookups: 0,
		},
		{
			// SLP misses, overlay answers, DNS never sees the query even
			// though the domain is DNS-routable.
			name: "overlay hit beats dns", aor: "bob@voicehoc.ch", attached: true,
			wantKind: "overlay", wantNode: "10.2.0.9", wantLookups: 1,
		},
		{
			// Nobody has the AOR: overlay was consulted, DNS wins as the
			// Internet fallback.
			name: "overlay miss falls to dns", aor: "carol@voicehoc.ch", attached: true,
			wantKind: "internet", wantNode: "voicehoc.ch", wantLookups: 1,
		},
		{
			// Detached node: the overlay lives across the gateway, so the
			// hop is skipped without a lookup, and DNS is gated off too.
			name: "detached skips overlay", aor: "bob@voicehoc.ch", attached: false,
			wantMiss: true, wantLookups: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := &stubDirectory{cached: cachedSIP("alice@voicehoc.ch", "10.0.0.1:5060")}
			ov := &stubOverlay{bindings: map[string]string{"bob@voicehoc.ch": "10.2.0.9:5060"}}
			chain := overlayChain(t, dir, ov)

			addr, kind, ok := resolveNow(t, chain, query(tc.aor, tc.attached))
			if tc.wantMiss {
				if ok {
					t.Fatalf("resolve = %v %q, want miss", addr, kind)
				}
			} else if !ok || kind != tc.wantKind || addr.Node != tc.wantNode {
				t.Fatalf("resolve = %v %q %v, want %q via %q",
					addr, kind, ok, tc.wantNode, tc.wantKind)
			}
			if ov.lookups != tc.wantLookups {
				t.Fatalf("overlay lookups = %d, want %d", ov.lookups, tc.wantLookups)
			}
		})
	}
}

// TestResolverChainTypedErrors pins the typed-error contract: a converged
// overlay miss falls through to DNS, while a backend failure (a lookup that
// outlives its deadline) aborts the walk and surfaces unchanged to the
// caller — a DHT outage must not silently masquerade as "user does not
// exist".
func TestResolverChainTypedErrors(t *testing.T) {
	dir := &stubDirectory{}

	got := resolveWait(t, overlayChain(t, dir, &stubOverlay{silent: true}), query("dave@voicehoc.ch", true))
	if !errors.Is(got.err, overlay.ErrTimeout) {
		t.Fatalf("Resolve error = %v, want passthrough of %v", got.err, overlay.ErrTimeout)
	}
	if got.kind != "overlay" {
		t.Fatalf("failing kind = %q, want overlay", got.kind)
	}

	// A converged miss is a clean miss: the walk continues and DNS answers.
	ov := &stubOverlay{}
	got = resolveWait(t, overlayChain(t, dir, ov), query("dave@voicehoc.ch", true))
	if got.err != nil || got.kind != "internet" || got.addr.Node != "voicehoc.ch" {
		t.Fatalf("Resolve after miss = %+v, want DNS answer", got)
	}

	// An exhausted chain reports ErrResolverMiss, not a backend failure.
	if got := resolveWait(t, overlayChain(t, dir, ov), query("dave@manet", false)); !errors.Is(got.err, ErrResolverMiss) {
		t.Fatalf("exhausted chain error = %v, want ErrResolverMiss", got.err)
	}
}

// TestOverlayResolverSelfRejection: overlay answers pointing back at the
// resolving proxy are a miss (we are that proxy; looping would 482).
func TestOverlayResolverSelfRejection(t *testing.T) {
	ov := &stubOverlay{bindings: map[string]string{"erin@voicehoc.ch": "10.1.0.4:5060"}}
	r := NewOverlayResolver(overlayHost(t), ov, OverlayResolverConfig{
		Self: sip.Addr{Node: "10.1.0.4", Port: 5060},
	})
	if _, ok := resolveOne(t, r, query("erin@voicehoc.ch", true)); ok {
		t.Fatal("overlay resolver returned its own proxy as next hop")
	}
}

// The SLP hot path — a chain walk ending in a cache hit — must not allocate:
// it runs once per routed request on every node.
func TestResolverChainCachedLookupAllocFree(t *testing.T) {
	dir := &stubDirectory{cached: cachedSIP("alice@voicehoc.ch", "10.0.0.7:5060")}
	chain := ResolverChain{
		NewSLPResolver(dir, SLPResolverConfig{CacheOnly: true}),
	}
	q := query("alice@voicehoc.ch", true)
	done := func(_ sip.Addr, _ string, err error) {
		if err != nil {
			t.Fatal("lookup missed")
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { chain.Resolve(q, done) }); allocs != 0 {
		t.Fatalf("resolver chain cached lookup allocates %.1f times per call, want 0", allocs)
	}
}

// resolveOnFake walks the chain. With wait > 0 the walk is expected to wait
// on an SLP network query for exactly wait of virtual time; with wait == 0
// it must finish without the clock moving at all.
func resolveOnFake(t *testing.T, chain ResolverChain, fc *clock.Fake, q ResolveQuery, wait time.Duration) (sip.Addr, string, bool) {
	t.Helper()
	before := fc.Now()
	var took time.Duration
	done := make(chan resolved, 1)
	chain.Resolve(q, func(addr sip.Addr, kind string, err error) {
		took = fc.Now().Sub(before)
		done <- resolved{addr, kind, err}
	})
	fc.Sleep(wait)
	select {
	case a := <-done:
		if took != wait {
			t.Fatalf("resolve %s took %v of virtual time, want %v", q.AOR, took, wait)
		}
		return a.addr, a.kind, a.err == nil
	default:
		t.Fatalf("resolve %s still blocked after %v of virtual time", q.AOR, wait)
		return sip.Addr{}, "", false
	}
}

// TestResolverChainRemembersSLPMiss drives the paper's attached-node policy
// (MANET SLP first, provider second) over a real SLP agent on a fake clock:
// only the first call to an Internet AOR waits out the attached SLP timeout,
// a detached lookup is never cut short by that shorter miss, and a MANET user
// whose advert arrives after the miss is called directly from then on.
func TestResolverChainRemembersSLPMiss(t *testing.T) {
	fc := clock.NewFake(time.Unix(1_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fc})
	defer net.Close()
	h, err := net.AddHost("10.0.0.1", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	agent := slp.NewAgent(h, slp.Config{})
	const attached, detached = 500 * time.Millisecond, 2 * time.Second
	chain := ResolverChain{
		NewSLPResolver(agent, SLPResolverConfig{Timeout: detached, TimeoutAttached: attached}),
		NewDNSResolver(func(domain string) sip.Addr {
			return sip.Addr{Node: netem.NodeID(domain), Port: sip.DefaultPort}
		}),
	}
	const aor = "carol@voicehoc.ch"

	if _, kind, ok := resolveOnFake(t, chain, fc, query(aor, true), attached); !ok || kind != "internet" {
		t.Fatalf("first call = %q %v, want the provider after the SLP timeout", kind, ok)
	}
	for i := 0; i < 3; i++ {
		if _, kind, ok := resolveOnFake(t, chain, fc, query(aor, true), 0); !ok || kind != "internet" {
			t.Fatalf("repeat call %d = %q %v, want the provider at once", i, kind, ok)
		}
	}
	if s := agent.Stats(); s.Lookups != 4 || s.NegativeHits != 3 || s.CacheHits != 0 {
		t.Fatalf("slp stats = %+v, want 4 lookups of which 3 remembered misses", s)
	}

	// Detached, the same AOR gets its full epidemic query.
	if _, _, ok := resolveOnFake(t, chain, fc, query(aor, false), detached); ok {
		t.Fatal("detached node resolved an AOR nobody advertises")
	}

	// carol registers in the MANET; her advert rides in on a routing message.
	adv := &slp.Payload{Adverts: []slp.Advert{{
		Type: SIPServiceType, Key: aor, URL: slp.ServiceURL(SIPServiceType, "10.0.0.7:5060"),
		Origin: "10.0.0.7", Seq: 1, TTL: 30 * time.Second,
	}}}
	agent.Incoming(routing.Incoming{From: "10.0.0.2", Ext: adv.Marshal()})
	addr, kind, ok := resolveOnFake(t, chain, fc, query(aor, true), 0)
	if !ok || kind != "slp" || addr.Node != "10.0.0.7" {
		t.Fatalf("call after late registration = %v %q %v, want 10.0.0.7 via slp", addr, kind, ok)
	}
}

// TestAttachedSLPMissEndsOnSettledTable drives the attached-node policy over a
// real SLP agent whose table agrees, or comes to agree, with its neighbours':
// a call to an AOR nobody in the MANET holds falls through to the provider as
// soon as the table has settled, not after the attached SLP timeout, while a
// binding whose advert arrives first is still answered by SLP, and a detached
// lookup still waits for one.
func TestAttachedSLPMissEndsOnSettledTable(t *testing.T) {
	const attached, detached = 500 * time.Millisecond, 2 * time.Second
	const carol, dave = "carol@voicehoc.ch", "dave@voicehoc.ch"
	type bed struct {
		fc     *clock.Fake
		host   *netem.Host // the caller's
		caller *slp.Agent
		daves  *slp.Agent // dave's node: registered, not yet heard
		chain  ResolverChain
	}
	newBed := func(t *testing.T) *bed {
		b := &bed{fc: clock.NewFake(time.Unix(1_000_000, 0))}
		net := netem.NewNetwork(netem.Config{Clock: b.fc})
		t.Cleanup(net.Close)
		hosts := make([]*netem.Host, 2)
		for i, id := range []netem.NodeID{"10.0.0.1", "10.0.0.7"} {
			h, err := net.AddHost(id, netem.Position{X: float64(30 * i)})
			if err != nil {
				t.Fatal(err)
			}
			hosts[i] = h
		}
		b.host = hosts[0]
		b.caller, b.daves = slp.NewAgent(hosts[0], slp.Config{}), slp.NewAgent(hosts[1], slp.Config{})
		if err := b.daves.Register(slp.Service{Type: SIPServiceType, Key: dave, URL: slp.ServiceURL(SIPServiceType, "10.0.0.7:5060")}); err != nil {
			t.Fatal(err)
		}
		b.chain = ResolverChain{
			NewSLPResolver(b.caller, SLPResolverConfig{Timeout: detached, TimeoutAttached: attached}),
			NewDNSResolver(func(domain string) sip.Addr {
				return sip.Addr{Node: netem.NodeID(domain), Port: sip.DefaultPort}
			}),
		}
		return b
	}
	// hear hands the caller what a neighbour's routing message carried; hearAt
	// does so at d of virtual time from now, on the caller's shard.
	hear := func(b *bed, from netem.NodeID, ext []byte) {
		b.caller.Incoming(routing.Incoming{From: from, Ext: ext})
	}
	hearAt := func(b *bed, d time.Duration, from netem.NodeID, ext []byte) {
		b.host.Sched().After(string(b.host.ID()), d, func(time.Time) { hear(b, from, ext) })
	}
	digest := func(d slp.Digest) []byte { return (&slp.Payload{Digest: &d}).Marshal() }
	// fromDave is dave's node's message to the caller: its digest and dave's
	// advert.
	fromDave := func(b *bed) []byte { return b.daves.Outgoing(routing.Outgoing{Budget: 1200}) }
	empty, other := slp.Digest{}, slp.Digest{Count: 1, Hash: 7}

	t.Run("settled", func(t *testing.T) {
		b := newBed(t)
		hear(b, "10.0.0.2", digest(empty)) // agrees with the caller's empty table
		for i := 0; i < 2; i++ {
			if _, kind, ok := resolveOnFake(t, b.chain, b.fc, query(carol, true), 0); !ok || kind != "internet" {
				t.Fatalf("call %d = %q %v, want the provider at once", i, kind, ok)
			}
		}
		if s := b.caller.Stats(); s.Lookups != 2 || s.SettledMisses != 2 || s.NegativeHits != 0 {
			t.Fatalf("slp stats = %+v, want 2 lookups, both settled misses, none remembered", s)
		}
	})
	t.Run("settling digest", func(t *testing.T) {
		b := newBed(t)
		hear(b, "10.0.0.2", digest(empty))
		hear(b, "10.0.0.3", digest(other))
		hearAt(b, 40*time.Millisecond, "10.0.0.3", digest(empty))
		if _, kind, ok := resolveOnFake(t, b.chain, b.fc, query(carol, true), 40*time.Millisecond); !ok || kind != "internet" {
			t.Fatalf("call = %q %v, want the provider at the settling digest", kind, ok)
		}
	})
	t.Run("advert before settle", func(t *testing.T) {
		b := newBed(t)
		hear(b, "10.0.0.7", digest(other))
		// One message brings dave's advert and the digest that settles the
		// table; the advert is installed first.
		hearAt(b, 30*time.Millisecond, "10.0.0.7", fromDave(b))
		addr, kind, ok := resolveOnFake(t, b.chain, b.fc, query(dave, true), 30*time.Millisecond)
		if !ok || kind != "slp" || addr.Node != "10.0.0.7" {
			t.Fatalf("call = %v %q %v, want 10.0.0.7 via slp", addr, kind, ok)
		}
		if s := b.caller.Stats(); s.SettledMisses != 0 {
			t.Fatalf("slp stats = %+v, want no settled miss", s)
		}
	})
	t.Run("detached", func(t *testing.T) {
		b := newBed(t)
		hear(b, "10.0.0.2", digest(empty))
		hearAt(b, 100*time.Millisecond, "10.0.0.7", fromDave(b))
		addr, kind, ok := resolveOnFake(t, b.chain, b.fc, query(dave, false), 100*time.Millisecond)
		if !ok || kind != "slp" || addr.Node != "10.0.0.7" {
			t.Fatalf("detached call = %v %q %v, want it to wait for 10.0.0.7 via slp", addr, kind, ok)
		}
	})
}
