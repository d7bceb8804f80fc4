package slp

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/routing"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/routing/olsr"
)

func TestServiceURL(t *testing.T) {
	url := ServiceURL("sip", "10.0.0.1:5060")
	if url != "service:sip://10.0.0.1:5060" {
		t.Fatalf("url = %q", url)
	}
	stype, addr, err := ParseServiceURL(url)
	if err != nil || stype != "sip" || addr != "10.0.0.1:5060" {
		t.Fatalf("parse = %q %q %v", stype, addr, err)
	}
	for _, bad := range []string{"", "sip://x", "service:sip:x"} {
		if _, _, err := ParseServiceURL(bad); err == nil {
			t.Errorf("ParseServiceURL(%q) accepted", bad)
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	in := &Payload{
		Adverts: []Advert{{
			Type: "sip", Key: "alice@voicehoc.ch",
			URL:    "service:sip://10.0.0.1:5060",
			Attrs:  map[string]string{"ua": "kphone"},
			Origin: "10.0.0.1", Seq: 7, TTL: 30 * time.Second,
		}},
		Queries: []Query{{Type: "sip", Key: "bob@voicehoc.ch", Origin: "10.0.0.2", ID: 3, Hops: 8}},
		Digest:  &Digest{Count: 1, Hash: 0xfeedface},
	}
	out, err := ParsePayload(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch:\n%+v\n%+v", in, out)
	}
}

func TestPayloadQuick(t *testing.T) {
	f := func(stype, key, url, origin string, seq uint32, ttl uint16, qid uint32, hops uint8) bool {
		if len(stype) > 200 || len(key) > 200 || len(url) > 200 || len(origin) > 200 {
			return true
		}
		in := &Payload{
			Digest:  &Digest{Count: ttl, Hash: uint64(seq)<<32 | uint64(qid)},
			Adverts: []Advert{{Type: stype, Key: key, URL: url, Origin: netem.NodeID(origin), Seq: seq, TTL: time.Duration(ttl) * ttlUnit}},
			Queries: []Query{{Type: stype, Key: key, Origin: netem.NodeID(origin), ID: qid, Hops: hops}},
		}
		out, err := ParsePayload(in.Marshal())
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{{0, 1, 9}, {0, 1, 1, 0}, {9}} {
		if _, err := ParsePayload(b); err == nil {
			t.Errorf("ParsePayload(%v) accepted", b)
		}
	}
}

func TestCacheFreshness(t *testing.T) {
	c := newCache()
	now := time.Now()
	exp := now.Add(time.Minute)
	c.upsert(Service{Type: "sip", Key: "a", URL: "u1", Origin: "n1", Seq: 5, Expires: exp})
	// Stale update from the same origin is rejected.
	if c.upsert(Service{Type: "sip", Key: "a", URL: "u0", Origin: "n1", Seq: 4, Expires: exp}) {
		t.Fatal("stale seq accepted")
	}
	// Fresher update wins.
	if !c.upsert(Service{Type: "sip", Key: "a", URL: "u2", Origin: "n1", Seq: 6, Expires: exp}) {
		t.Fatal("fresher seq rejected")
	}
	svc, ok := c.get("sip", "a", now)
	if !ok || svc.URL != "u2" {
		t.Fatalf("get = %+v %v", svc, ok)
	}
	// An equal seq is a copy of what is held: nothing changes, not even the expiry.
	if c.upsert(Service{Type: "sip", Key: "a", URL: "u2", Origin: "n1", Seq: 6, Expires: exp.Add(time.Hour)}) {
		t.Fatal("equal seq accepted")
	}
	// Between origins the greater ID wins whatever the seqs and the arrival
	// order, so two nodes that saw both claims keep the same one.
	if !c.upsert(Service{Type: "sip", Key: "a", URL: "u3", Origin: "n2", Seq: 1, Expires: exp}) {
		t.Fatal("re-binding from the greater origin rejected")
	}
	if c.upsert(Service{Type: "sip", Key: "a", URL: "u4", Origin: "n1", Seq: 9, Expires: exp}) {
		t.Fatal("the lesser origin took the key back")
	}
	// Expiry.
	if _, ok := c.get("sip", "a", now.Add(2*time.Minute)); ok {
		t.Fatal("expired entry returned")
	}
}

// TestCacheOneExpiryItemPerEntry: an entry refreshed again and again has one
// item in the expiry heap, pushed again when it comes due, and still expires
// the instant its lifetime ends; a lifetime cut short queues an earlier item,
// which the entry's expiry follows, and the one it passed over is dropped at
// its own deadline.
func TestCacheOneExpiryItemPerEntry(t *testing.T) {
	c := newCache()
	t0 := time.Unix(1_000_000, 0)
	svc := Service{Type: "sip", Key: "a@x", URL: "u", Origin: "n"}
	for i := range 10 {
		svc.Seq, svc.Expires = uint32(i+1), t0.Add(time.Duration(i+1)*10*time.Second)
		c.upsert(svc)
	}
	if len(c.expiry) != 1 {
		t.Fatalf("ten versions of one entry hold %d expiry items, want 1", len(c.expiry))
	}
	if _, ok := c.get("sip", "a@x", t0.Add(50*time.Second)); !ok || len(c.expiry) != 1 || !c.expiry[0].at.Equal(svc.Expires) {
		t.Fatalf("past its first deadline: live %v, items %v; want live, one item at %v", ok, c.expiry, svc.Expires)
	}
	svc.Seq, svc.Expires = 11, t0.Add(60*time.Second)
	c.upsert(svc)
	if len(c.expiry) != 2 {
		t.Fatalf("a shortened lifetime left %d expiry items, want 2", len(c.expiry))
	}
	if _, ok := c.get("sip", "a@x", svc.Expires); !ok {
		t.Fatal("the entry is gone at its deadline, want it live until just after")
	}
	if _, ok := c.get("sip", "a@x", svc.Expires.Add(time.Nanosecond)); ok || len(c.expiry) != 1 {
		t.Fatalf("just past the shortened lifetime: live %v, %d items; want gone, 1", ok, len(c.expiry))
	}
	if d := c.digest(t0.Add(101 * time.Second)); d.Count != 0 || len(c.expiry) != 0 {
		t.Fatalf("after every deadline: digest %+v, %d items; want empty", d, len(c.expiry))
	}
}

func TestCacheWaiters(t *testing.T) {
	net := netem.NewNetwork(netem.Config{})
	t.Cleanup(net.Close)
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgent(h, Config{})
	ch := make(chan Service, 1)
	a.LookupAsync("sip", "x", time.Minute, func(svc Service, err error) {
		if err != nil {
			t.Errorf("waiting lookup failed: %v", err)
		}
		ch <- svc
	})
	go a.cache.upsert(Service{Type: "sip", Key: "x", URL: "u", Origin: "n", Expires: time.Now().Add(time.Minute)})
	select {
	case svc := <-ch:
		if svc.URL != "u" {
			t.Fatalf("svc = %+v", svc)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never signalled")
	}
}

// buildChain starts an n-node AODV chain with SLP agents in the given mode.
func buildChain(t *testing.T, n int, mode Mode) ([]*netem.Host, []*Agent, *netem.Network) {
	t.Helper()
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	hosts, err := netem.Chain(net, n, 90, "10.0.0")
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*Agent, n)
	for i, h := range hosts {
		agents[i] = NewAgent(h, Config{Mode: mode})
		proto := aodv.New(h, aodv.SimConfig())
		agents[i].AttachRouting(proto)
		if err := proto.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proto.Stop)
		if err := agents[i].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agents[i].Stop)
	}
	return hosts, agents, net
}

func TestRegisterAndLocalLookup(t *testing.T) {
	_, agents, _ := buildChain(t, 1, ModePiggyback)
	a := agents[0]
	if err := a.Register(Service{Type: "sip", Key: "alice@voicehoc.ch", URL: "service:sip://10.0.0.1:5060"}); err != nil {
		t.Fatal(err)
	}
	svc, err := a.Lookup("sip", "alice@voicehoc.ch", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if svc.URL != "service:sip://10.0.0.1:5060" {
		t.Fatalf("svc = %+v", svc)
	}
	if s := a.Stats(); s.CacheHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPiggybackDisseminationAcrossChain(t *testing.T) {
	hosts, agents, net := buildChain(t, 5, ModePiggyback)
	if err := agents[0].Register(Service{Type: "sip", Key: "alice@voicehoc.ch", URL: ServiceURL("sip", string(hosts[0].ID())+":5060")}); err != nil {
		t.Fatal(err)
	}
	// Hellos carry the advert hop by hop; the far node learns it without
	// asking.
	svc, err := agents[4].Lookup("sip", "alice@voicehoc.ch", 10*time.Second)
	if err != nil {
		t.Fatalf("lookup: %v\n%s", err, agents[4].Dump())
	}
	if svc.Origin != hosts[0].ID() {
		t.Fatalf("origin = %v", svc.Origin)
	}
	// The paper's headline property: MANET SLP sends no dedicated
	// discovery frames.
	if sf := net.Stats().ServiceFrames; sf != 0 {
		t.Fatalf("piggyback mode sent %d dedicated service frames", sf)
	}
}

func TestMulticastLookup(t *testing.T) {
	hosts, agents, net := buildChain(t, 4, ModeMulticast)
	if err := agents[0].Register(Service{Type: "sip", Key: "alice@voicehoc.ch", URL: ServiceURL("sip", string(hosts[0].ID())+":5060")}); err != nil {
		t.Fatal(err)
	}
	svc, err := agents[3].Lookup("sip", "alice@voicehoc.ch", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Origin != hosts[0].ID() {
		t.Fatalf("origin = %v", svc.Origin)
	}
	// The baseline costs dedicated flood frames — the E9 contrast.
	if sf := net.Stats().ServiceFrames; sf == 0 {
		t.Fatal("multicast mode sent no service frames")
	}
}

// TestLookupNotFound: a lookup nobody answers ends ErrNotFound, and so does the
// next one, from the remembered miss; the error names what was looked for, in
// the words it always did, though it is only formatted when read.
func TestLookupNotFound(t *testing.T) {
	_, agents, _ := buildChain(t, 2, ModePiggyback)
	for _, from := range []string{"the network", "the remembered miss"} {
		_, err := agents[0].Lookup("sip", "ghost@nowhere", 300*time.Millisecond)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("from %s: err = %v, want ErrNotFound", from, err)
		}
		if got, want := err.Error(), "lookup sip/ghost@nowhere: slp: service not found"; got != want {
			t.Fatalf("from %s: err reads %q, want %q", from, got, want)
		}
	}
	if st := agents[0].Stats(); st.NegativeHits != 1 {
		t.Fatalf("NegativeHits = %d, want the second lookup answered from the miss", st.NegativeHits)
	}
}

func TestDeregisterStopsAnswering(t *testing.T) {
	_, agents, _ := buildChain(t, 1, ModePiggyback)
	a := agents[0]
	if err := a.Register(Service{Type: "gateway", Key: "", URL: "service:gateway://g:9000"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.LookupCached("gateway", ""); !ok {
		t.Fatal("registered service not cached")
	}
	a.Deregister("gateway", "")
	if _, ok := a.LookupCached("gateway", ""); ok {
		t.Fatal("deregistered service still cached")
	}
}

func TestDumpFormat(t *testing.T) {
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	defer net.Close()
	h, err := net.AddHost("10.0.0.1", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgent(h, Config{})
	proto := olsr.New(h, olsr.SimConfig())
	a.AttachRouting(proto)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	if err := a.Register(Service{Type: "sip", Key: "alice@voicehoc.ch", URL: "service:sip://10.0.0.1:5060"}); err != nil {
		t.Fatal(err)
	}
	dump := a.Dump()
	for _, want := range []string{
		"loaded routing plugin: OLSR",
		"service:sip://10.0.0.1:5060",
		"sip/alice@voicehoc.ch",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestOutgoingRespectsBudget(t *testing.T) {
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	defer net.Close()
	h, err := net.AddHost("n", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgent(h, Config{})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	// Register many services so the advert list exceeds small budgets.
	for i := range 100 {
		if err := a.Register(Service{
			Type: "sip",
			Key:  strings.Repeat("x", 30) + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			URL:  "service:sip://n:5060",
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range []int{16, 64, 256, 1024} {
		ext := a.Outgoing(outgoingMsg(budget))
		if len(ext) > budget {
			t.Fatalf("budget %d: ext size %d", budget, len(ext))
		}
		if len(ext) > 0 {
			if _, err := ParsePayload(ext); err != nil {
				t.Fatalf("budget %d: unparseable ext: %v", budget, err)
			}
		}
	}
	// A zero budget must produce no extension.
	if ext := a.Outgoing(outgoingMsg(0)); ext != nil {
		t.Fatal("nonzero ext under zero budget")
	}
}

func outgoingMsg(budget int) routing.Outgoing {
	return routing.Outgoing{Proto: routing.ProtoAODV, Kind: 1, Kind2: "RREQ", Budget: budget}
}
