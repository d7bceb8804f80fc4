package voip

import (
	"strings"
	"testing"
	"time"

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
	tx, err := stack.SendRequest(req, bob.Addr())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tx.Await()
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
