package voip

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/core"
	"siphoc/internal/netem"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
)

// fixture builds two SIPHoc nodes with proxies and returns phones on each.
type fixture struct {
	net     *netem.Network
	phones  map[string]*Phone
	nodes   []*netem.Host
	proxies []*core.Proxy
}

func newFixture(t *testing.T, autoAnswer bool) *fixture {
	t.Helper()
	f := &fixture{
		net:    netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond}),
		phones: make(map[string]*Phone),
	}
	t.Cleanup(f.net.Close)
	hosts, err := netem.Chain(f.net, 2, 80, "10.0.0")
	if err != nil {
		t.Fatal(err)
	}
	f.nodes = hosts
	users := []string{"alice", "bob"}
	for i, h := range hosts {
		proto := aodv.New(h, aodv.SimConfig())
		agent := slp.NewAgent(h, slp.Config{})
		agent.AttachRouting(proto)
		if err := proto.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proto.Stop)
		if err := agent.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agent.Stop)
		proxy := core.NewProxy(h, agent, nil, core.ProxyConfig{SLPTimeout: 2 * time.Second})
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proxy.Stop)
		f.proxies = append(f.proxies, proxy)
		ph := New(h, Config{
			User: users[i], Domain: "voicehoc.ch",
			OutboundProxy: proxy.Addr(),
			NoAutoAnswer:  !autoAnswer,
			SIP:           sip.SimConfig(),
		})
		if err := ph.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ph.Stop)
		f.phones[users[i]] = ph
	}
	for _, u := range users {
		var err error
		for range 5 {
			if err = f.phones[u].Register(); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("register %s: %v", u, err)
		}
	}
	return f
}

func TestCallLifecycleStates(t *testing.T) {
	f := newFixture(t, true)
	alice := f.phones["alice"]
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if call.State() != StateEstablished {
		t.Fatalf("state = %v", call.State())
	}
	if call.SetupDuration() <= 0 {
		t.Fatal("setup duration not recorded")
	}
	// Hangup twice: second must error, state ends at Ended.
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}
	if call.State() != StateEnded {
		t.Fatalf("state after hangup = %v", call.State())
	}
	if err := call.Hangup(); err == nil {
		t.Fatal("second hangup succeeded")
	}
}

func TestRemoteHangupEndsBothLegs(t *testing.T) {
	f := newFixture(t, true)
	alice, bob := f.phones["alice"], f.phones["bob"]
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	var bobCall *Call
	select {
	case bobCall = <-bob.Incoming():
	case <-time.After(5 * time.Second):
		t.Fatal("bob never saw the call")
	}
	if err := bobCall.WaitEstablished(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Bob hangs up; Alice's leg must end via the BYE.
	if err := bobCall.Hangup(); err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEnded(10 * time.Second); err != nil {
		t.Fatalf("alice leg never ended: %v", err)
	}
}

func TestManualAnswer(t *testing.T) {
	f := newFixture(t, false)
	alice, bob := f.phones["alice"], f.phones["bob"]
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		t.Fatal(err)
	}
	var inc *Call
	select {
	case inc = <-bob.Incoming():
	case <-time.After(10 * time.Second):
		t.Fatal("no incoming call")
	}
	if inc.State() != StateRinging {
		t.Fatalf("incoming state = %v", inc.State())
	}
	// Caller should be hearing ringback by now.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && call.State() != StateRinging {
		time.Sleep(5 * time.Millisecond)
	}
	if call.State() != StateRinging {
		t.Fatalf("caller state = %v, want ringing", call.State())
	}
	if err := inc.Answer(); err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Answering an established call errors.
	if err := inc.Answer(); err == nil {
		t.Fatal("double answer succeeded")
	}
	_ = call.Hangup()
}

func TestRejectDeliversBusy(t *testing.T) {
	f := newFixture(t, false)
	alice, bob := f.phones["alice"], f.phones["bob"]
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		t.Fatal(err)
	}
	inc := <-bob.Incoming()
	if err := inc.Reject(sip.StatusBusyHere); err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEnded(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if call.State() != StateFailed || call.FailCode() != sip.StatusBusyHere {
		t.Fatalf("state=%v code=%d", call.State(), call.FailCode())
	}
}

func TestUnregisterRemovesBinding(t *testing.T) {
	f := newFixture(t, true)
	bob := f.phones["bob"]
	if err := bob.Unregister(); err != nil {
		t.Fatal(err)
	}
	// Bob's own proxy no longer knows him; SLP caches elsewhere may
	// linger until TTL, so call his proxy's view directly: a new call
	// from Alice must eventually fail (404 from Bob's proxy or timeout).
	alice := f.phones["alice"]
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(10 * time.Second); err == nil {
		t.Fatal("call to unregistered user established")
	}
}

func TestDialTargetParsing(t *testing.T) {
	f := newFixture(t, true)
	alice := f.phones["alice"]
	if _, err := alice.Dial("sip:bob@voicehoc.ch"); err != nil {
		t.Fatalf("full URI rejected: %v", err)
	}
	if _, err := alice.Dial("not a uri at all::"); err == nil {
		t.Fatal("garbage target accepted")
	}
}

func TestPhoneStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateSetup: "setup", StateRinging: "ringing", StateEstablished: "established",
		StateEnded: "ended", StateFailed: "failed", State(99): "state(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestOptionsAnswered(t *testing.T) {
	f := newFixture(t, true)
	bob := f.phones["bob"]
	// Probe Bob's UA directly with OPTIONS.
	conn, err := f.nodes[0].Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(stack.Close)
	req := sip.NewRequest(sip.MethodOptions, sip.MustParseURI("sip:bob@voicehoc.ch"))
	req.From = &sip.NameAddr{URI: sip.MustParseURI("sip:probe@voicehoc.ch")}
	req.From = req.From.WithTag("t")
	req.To = &sip.NameAddr{URI: sip.MustParseURI("sip:bob@voicehoc.ch")}
	req.CallID = "c-options"
	req.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodOptions}
	resp, err := stack.Await(req, bob.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("OPTIONS status = %d", resp.StatusCode)
	}
}

func TestAORFormat(t *testing.T) {
	f := newFixture(t, true)
	if aor := f.phones["alice"].AOR(); !strings.HasPrefix(aor, "alice@") {
		t.Fatalf("AOR = %q", aor)
	}
}

// direct routes every destination as a 1-hop neighbour.
type direct struct{}

func (direct) NextHop(dst netem.NodeID) (netem.NodeID, bool)  { return dst, true }
func (direct) RequestRoute(dst netem.NodeID, done func(bool)) { done(true) }

// directPhones puts phones "a" and "b" on two neighbouring hosts of a
// network on a fake clock, with no proxies: each phone's outbound proxy is
// the other phone, and neither answers by itself.
func directPhones(t *testing.T) (*clock.Fake, *netem.Network, map[netem.NodeID]*Phone) {
	t.Helper()
	fake := clock.NewFake(time.Unix(3_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1, BaseDelay: time.Millisecond})
	t.Cleanup(net.Close)
	phones := make(map[netem.NodeID]*Phone)
	for i, id := range []netem.NodeID{"a", "b"} {
		h, err := net.AddHost(id, netem.Position{X: float64(10 * i)})
		if err != nil {
			t.Fatal(err)
		}
		h.SetRouteProvider(direct{})
		peer := netem.NodeID("b")
		if id == "b" {
			peer = "a"
		}
		ph := New(h, Config{User: string(id), Domain: "x", NoAutoAnswer: true,
			OutboundProxy: sip.Addr{Node: peer, Port: 5062}})
		if err := ph.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ph.Stop)
		phones[id] = ph
	}
	return fake, net, phones
}

// ringing has phone a call b and returns both legs once b rings.
func ringing(t *testing.T, fake *clock.Fake, phones map[netem.NodeID]*Phone) (call, inc *Call) {
	t.Helper()
	call, err := phones["a"].Dial("b@b")
	if err != nil {
		t.Fatal(err)
	}
	fake.Sleep(100 * time.Millisecond)
	select {
	case inc = <-phones["b"].Incoming():
	default:
		t.Fatal("callee never rang")
	}
	if st := call.State(); st != StateRinging {
		t.Fatalf("caller in state %s, want ringing", st)
	}
	return call, inc
}

// TestLostAckIsRecovered drops the caller's first ACK on a fake clock: the
// callee sends its 200 again (RFC 3261 §13.3.1.4), the caller answers the
// retransmission with the ACK again, and the callee reaches Established
// instead of ringing forever.
func TestLostAckIsRecovered(t *testing.T) {
	fake, net, phones := directPhones(t)
	call, inc := ringing(t, fake, phones)
	if err := inc.Answer(); err != nil {
		t.Fatal(err)
	}
	// The 200 is on its way; the ACK it draws goes nowhere.
	net.SetLink("a", "b", false)
	if err := call.WaitEstablished(2 * time.Second); err != nil {
		t.Fatalf("caller: %v", err)
	}
	net.ClearLink("a", "b")
	if err := inc.WaitEstablished(2 * time.Second); err != nil {
		t.Fatalf("callee: %v", err)
	}
}

// TestRejectAfterAnswerIsRefused: Reject on an answered call returns an error
// and leaves the call alone. No 486 follows the 200 onto the air, and both
// legs stay established.
func TestRejectAfterAnswerIsRefused(t *testing.T) {
	fake, net, phones := directPhones(t)
	var busy atomic.Int32
	net.SetTap(func(f netem.Frame) {
		if bytes.Contains(f.Payload, []byte("SIP/2.0 486 ")) {
			busy.Add(1)
		}
	})
	call, inc := ringing(t, fake, phones)
	if err := inc.Answer(); err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(2 * time.Second); err != nil {
		t.Fatalf("caller: %v", err)
	}
	if err := inc.WaitEstablished(2 * time.Second); err != nil {
		t.Fatalf("callee: %v", err)
	}
	if err := inc.Reject(sip.StatusBusyHere); err == nil {
		t.Fatal("Reject after Answer succeeded")
	}
	fake.Sleep(100 * time.Millisecond)
	if a, b := call.State(), inc.State(); a != StateEstablished || b != StateEstablished {
		t.Fatalf("caller %s, callee %s; want both established", a, b)
	}
	if n := busy.Load(); n != 0 {
		t.Fatalf("%d 486 responses went out after the 200", n)
	}
}
