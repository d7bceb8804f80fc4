package internet

import (
	"testing"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/sip"
)

func newInternet(t *testing.T) *Internet {
	t.Helper()
	inet := New(Config{Delay: 100 * time.Microsecond})
	t.Cleanup(inet.Close)
	return inet
}

func TestFullMeshConnectivity(t *testing.T) {
	inet := newInternet(t)
	a, err := inet.AddHost("a.example")
	if err != nil {
		t.Fatal(err)
	}
	b, err := inet.AddHost("b.example")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := a.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	defer cb.Close()
	arrived := make(chan *netem.Datagram, 1)
	cb.Handle(func(dg *netem.Datagram) { arrived <- dg.Clone() })
	if err := ca.WriteTo([]byte("hi"), "b.example", 2); err != nil {
		t.Fatal(err)
	}
	select {
	case dg := <-arrived:
		if string(dg.Data) != "hi" {
			t.Errorf("recv = %v", dg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("internet datagram never arrived")
	}
}

// uaStack builds a bare SIP stack on a fresh internet host.
func uaStack(t *testing.T, inet *Internet, name netem.NodeID) *sip.Stack {
	t.Helper()
	h, err := inet.AddHost(name)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := h.Listen(sip.DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	s := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(s.Close)
	return s
}

func registerReq(s *sip.Stack, user, domain string, contact sip.Addr, expires int) *sip.Message {
	req := sip.NewRequest(sip.MethodRegister, &sip.URI{Scheme: "sip", Host: domain})
	id := &sip.NameAddr{URI: &sip.URI{Scheme: "sip", User: user, Host: domain}}
	req.From = id.WithTag(s.NewTag())
	req.To = id
	req.CallID = s.NewCallID()
	req.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodRegister}
	req.Contact = []*sip.NameAddr{{URI: &sip.URI{
		Scheme: "sip", User: user, Host: string(contact.Node), Port: contact.Port,
	}}}
	req.Expires = expires
	return req
}

func TestProviderRegistrar(t *testing.T) {
	inet := newInternet(t)
	prov, err := NewProvider(inet, ProviderConfig{Domain: "voicehoc.ch", BindingTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(prov.Close)
	prov.AddAccount("alice")
	ua := uaStack(t, inet, "ua.alice.net")

	// Unknown account: rejected.
	resp, err := ua.Await(registerReq(ua, "mallory", "voicehoc.ch", ua.Addr(), 60), prov.ProxyAddr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusNotFound {
		t.Fatalf("unknown account status = %d", resp.StatusCode)
	}

	// Known account: accepted, binding stored.
	resp, err = ua.Await(registerReq(ua, "alice", "voicehoc.ch", ua.Addr(), 60), prov.ProxyAddr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("register status = %d", resp.StatusCode)
	}
	b, ok := prov.Binding("alice@voicehoc.ch")
	if !ok || b.Node != "ua.alice.net" {
		t.Fatalf("binding = %+v %v", b, ok)
	}

	// Expires: 0 removes the binding.
	if _, err := ua.Await(registerReq(ua, "alice", "voicehoc.ch", ua.Addr(), 0), prov.ProxyAddr()); err != nil {
		t.Fatal(err)
	}
	if _, ok := prov.Binding("alice@voicehoc.ch"); ok {
		t.Fatal("binding survived Expires: 0")
	}
	if prov.Stats().Registers != 3 {
		t.Fatalf("stats = %+v", prov.Stats())
	}
}

func TestProviderBindingExpiry(t *testing.T) {
	inet := newInternet(t)
	prov, err := NewProvider(inet, ProviderConfig{Domain: "x.ch", BindingTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(prov.Close)
	prov.AddAccount("alice")
	ua := uaStack(t, inet, "ua.net")
	req := registerReq(ua, "alice", "x.ch", ua.Addr(), -1) // -1: no Expires header, use TTL default
	req.Expires = -1
	if _, err := ua.Await(req, prov.ProxyAddr()); err != nil {
		t.Fatal(err)
	}
	if _, ok := prov.Binding("alice@x.ch"); !ok {
		t.Fatal("binding missing right after register")
	}
	time.Sleep(100 * time.Millisecond)
	if _, ok := prov.Binding("alice@x.ch"); ok {
		t.Fatal("binding survived its TTL")
	}
}

func TestProviderForwardsInviteToBinding(t *testing.T) {
	inet := newInternet(t)
	prov, err := NewProvider(inet, ProviderConfig{Domain: "voicehoc.ch"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(prov.Close)
	prov.AddAccount("bob")
	bob := uaStack(t, inet, "ua.bob.net")
	bob.OnRequest(func(tx *sip.ServerTx) {
		_ = tx.RespondCode(sip.StatusOK, "")
	})
	if _, err := bob.Await(registerReq(bob, "bob", "voicehoc.ch", bob.Addr(), 60), prov.ProxyAddr()); err != nil {
		t.Fatal(err)
	}

	alice := uaStack(t, inet, "ua.alice.net")
	inv := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:bob@voicehoc.ch"))
	inv.From = &sip.NameAddr{URI: sip.MustParseURI("sip:alice@voicehoc.ch")}
	inv.From = inv.From.WithTag("t")
	inv.To = &sip.NameAddr{URI: sip.MustParseURI("sip:bob@voicehoc.ch")}
	inv.CallID = alice.NewCallID()
	inv.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodInvite}
	resp, err := alice.Await(inv, prov.ProxyAddr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("invite status = %d", resp.StatusCode)
	}
	if prov.Stats().Forwarded == 0 {
		t.Fatalf("stats = %+v", prov.Stats())
	}
}

func TestProviderInviteWithoutBindingIs480(t *testing.T) {
	inet := newInternet(t)
	prov, err := NewProvider(inet, ProviderConfig{Domain: "voicehoc.ch"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(prov.Close)
	prov.AddAccount("bob")
	alice := uaStack(t, inet, "ua.alice.net")
	inv := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:bob@voicehoc.ch"))
	inv.From = &sip.NameAddr{URI: sip.MustParseURI("sip:alice@voicehoc.ch")}
	inv.From = inv.From.WithTag("t")
	inv.To = &sip.NameAddr{URI: sip.MustParseURI("sip:bob@voicehoc.ch")}
	inv.CallID = alice.NewCallID()
	inv.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodInvite}
	resp, err := alice.Await(inv, prov.ProxyAddr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusTemporarilyUnavail {
		t.Fatalf("status = %d, want 480", resp.StatusCode)
	}
}

func TestOutboundProxyProviderHasSilentDomainNode(t *testing.T) {
	inet := newInternet(t)
	prov, err := NewProvider(inet, ProviderConfig{Domain: "polyphone.ethz.ch", ProxyHost: "sipgate.ethz.ch"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(prov.Close)
	if !prov.RequiresOutboundProxy() {
		t.Fatal("RequiresOutboundProxy = false")
	}
	// The domain node exists (DNS resolves) but runs no SIP service, so a
	// REGISTER sent there times out — the paper's failure mode.
	ua := uaStack(t, inet, "ua.net")
	prov.AddAccount("alice")
	resp, err := ua.Await(registerReq(ua, "alice", "polyphone.ethz.ch", ua.Addr(), 60),
		sip.Addr{Node: "polyphone.ethz.ch", Port: sip.DefaultPort})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 timeout", resp.StatusCode)
	}
	// Sending to the real proxy host works.
	resp, err = ua.Await(registerReq(ua, "alice", "polyphone.ethz.ch", ua.Addr(), 60), prov.ProxyAddr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("status via outbound proxy = %d", resp.StatusCode)
	}
}
