package siphoc

import (
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// Failure-injection tests: the behaviours the paper's emergency-response
// motivation depends on but its evaluation never stresses. They run in
// virtual time, where the timeouts and recoveries they wait out cost no wall
// time.

// virtualRadio runs a scenario on a one-shard fake clock owned by the
// calling goroutine, the test body.
func virtualRadio() ScenarioOption {
	return WithRadio(netem.Config{Clock: clock.NewFake(time.Unix(1_000_000, 0)), Shards: 1})
}

// TestCallSurvivesPacketLoss runs the Figure-3 flow over a 15%-loss radio:
// SIP retransmissions must still complete the call, and media quality must
// degrade (lower MOS) rather than collapse.
func TestCallSurvivesPacketLoss(t *testing.T) {
	sc, err := NewScenarioWith(WithRadio(netem.Config{LossRate: 0.15, Seed: 42,
		Clock: clock.NewFake(time.Unix(1_000_000, 0)), Shards: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	nodes, err := sc.Chain(3, 90)
	if err != nil {
		t.Fatal(err)
	}
	alice := registerPhone(t, nodes[0], "alice")
	bob := registerPhone(t, nodes[2], "bob")
	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(30 * time.Second); err != nil {
		t.Fatalf("call over lossy radio: %v", err)
	}
	const frames = 100
	call.SendVoice(frames)
	sc.Clock().Sleep(300 * time.Millisecond)
	var bobCall *Call
	select {
	case bobCall = <-bob.Incoming():
	case <-time.After(time.Second):
		t.Fatal("no callee leg")
	}
	st := bobCall.MediaStats()
	if st.Received == 0 {
		t.Fatal("no media survived the loss")
	}
	// Per-hop loss 15% over 2 hops ≈ 28% end to end; allow slack but the
	// stream must be visibly degraded and non-empty.
	if st.LossRate == 0 {
		t.Fatalf("loss rate 0 on a lossy network: %+v", st)
	}
	if st.MOS >= 4.3 {
		t.Fatalf("MOS %f did not degrade under loss", st.MOS)
	}
	if st.MOS < 1 {
		t.Fatalf("MOS out of range: %f", st.MOS)
	}
	_ = call.Hangup()
}

// TestCalleeNodeDiesMidSetup kills the callee's node right after dialing:
// the caller must get a clean failure, not a hang.
func TestCalleeNodeDiesMidSetup(t *testing.T) {
	sc, err := NewScenarioWith(virtualRadio())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	nodes, err := sc.Chain(3, 90)
	if err != nil {
		t.Fatal(err)
	}
	alice := registerPhone(t, nodes[0], "alice")
	registerPhone(t, nodes[2], "bob")
	// Wait until the binding has disseminated, then kill Bob's node.
	if _, err := nodes[0].SLP().Lookup("sip", "bob@"+domain, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sc.RemoveNode(nodes[2].ID())
	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(30 * time.Second); err == nil {
		t.Fatal("call to a dead node established")
	}
	if call.State() != CallFailed {
		t.Fatalf("state = %v", call.State())
	}
	// 408 (transaction timeout) or 404/480 depending on where it died.
	switch call.FailCode() {
	case 404, 408, 480, 500:
	default:
		t.Fatalf("unexpected fail code %d", call.FailCode())
	}
}

// TestRelayDiesMidCallMediaRecovers kills the only relay of an established
// call; once a replacement relay appears, AODV re-discovers the path and
// media flows again.
func TestRelayDiesMidCallMediaRecovers(t *testing.T) {
	sc, err := NewScenarioWith(virtualRadio())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	nodes, err := sc.Chain(3, 90)
	if err != nil {
		t.Fatal(err)
	}
	alice := registerPhone(t, nodes[0], "alice")
	bob := registerPhone(t, nodes[2], "bob")
	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	var bobCall *Call
	select {
	case bobCall = <-bob.Incoming():
	case <-time.After(time.Second):
		t.Fatal("no callee leg")
	}
	clk := sc.Clock()
	call.SendVoice(10)
	clk.Sleep(200 * time.Millisecond)
	before := bobCall.MediaStats().Received
	if before == 0 {
		t.Fatal("no media before the failure")
	}
	// Kill the relay; voice now blackholes.
	sc.RemoveNode(nodes[1].ID())
	clk.Sleep(100 * time.Millisecond)
	call.SendVoice(5)
	// Bring up a replacement relay in the same spot.
	if _, err := sc.AddNode("10.0.0.99", Position{X: 90}); err != nil {
		t.Fatal(err)
	}
	// Give AODV time to notice the broken link and keep streaming; the
	// route re-forms through the new relay.
	deadline := clk.Now().Add(30 * time.Second)
	for clk.Now().Before(deadline) {
		call.SendVoice(5)
		clk.Sleep(100 * time.Millisecond)
		if bobCall.MediaStats().Received > before+5 {
			return // media flows again
		}
	}
	t.Fatalf("media never recovered: before=%d after=%d", before, bobCall.MediaStats().Received)
}

// TestSLPStaleBindingAfterNodeDeath: when a registered user's node dies,
// other caches keep the stale binding until its TTL; calls fail cleanly in
// the meantime and the advert eventually expires.
func TestSLPStaleBindingExpires(t *testing.T) {
	sc, err := NewScenarioWith(virtualRadio())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	nodes, err := sc.Chain(2, 80)
	if err != nil {
		t.Fatal(err)
	}
	registerPhone(t, nodes[1], "bob")
	if _, err := nodes[0].SLP().Lookup("sip", "bob@"+domain, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sc.RemoveNode(nodes[1].ID())
	// The stale entry is still cached (TTL 30s) — a call fails with a
	// transaction timeout rather than hanging.
	alice := registerPhone(t, nodes[0], "alice")
	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(30 * time.Second); err == nil {
		t.Fatal("call via stale binding established")
	}
}
