package sip

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/testutil"
)

// pair builds two directly-connected hosts with SIP stacks on port 5060.
func pair(t *testing.T, cfg netem.Config) (*Stack, *Stack, *netem.Network) {
	t.Helper()
	return pairWith(t, cfg, SimConfig())
}

// pairWith is pair with the transaction timing and clock given.
func pairWith(t *testing.T, cfg netem.Config, sipCfg Config) (*Stack, *Stack, *netem.Network) {
	t.Helper()
	if cfg.BaseDelay == 0 {
		cfg.BaseDelay = 100 * time.Microsecond
	}
	n := netem.NewNetwork(cfg)
	t.Cleanup(n.Close)
	ha, err := n.AddHost("a", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n.AddHost("b", netem.Position{X: 10})
	if err != nil {
		t.Fatal(err)
	}
	ha.SetRouteProvider(direct{})
	hb.SetRouteProvider(direct{})
	ca, err := ha.Listen(DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := hb.Listen(DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	sa := NewStack(ca, sipCfg)
	sb := NewStack(cb, sipCfg)
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)
	return sa, sb, n
}

// direct routes every destination as a 1-hop neighbour.
type direct struct{}

func (direct) NextHop(dst netem.NodeID) (netem.NodeID, bool) { return dst, true }
func (direct) RequestRoute(dst netem.NodeID, done func(bool)) {
	done(true)
}

func testRequest(s *Stack, method string) *Message {
	req := NewRequest(method, MustParseURI("sip:bob@b"))
	req.From = &NameAddr{URI: MustParseURI("sip:alice@a")}
	req.From = req.From.WithTag(s.NewTag())
	req.To = &NameAddr{URI: MustParseURI("sip:bob@b")}
	req.CallID = s.NewCallID()
	req.CSeq = CSeq{Seq: 1, Method: method}
	return req
}

func TestRequestResponseExchange(t *testing.T) {
	sa, sb, _ := pair(t, netem.Config{})
	sb.OnRequest(func(tx *ServerTx) {
		if tx.Request().Method != MethodOptions {
			t.Errorf("method = %q", tx.Request().Method)
		}
		_ = tx.RespondCode(StatusOK, "")
	})
	resp, err := sa.Await(testRequest(sa, MethodOptions), Addr{Node: "b", Port: DefaultPort})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.To.Tag() == "" {
		t.Fatal("UAS did not add a To tag")
	}
}

// TestProvisionalThenFinal: the UAS rings at once and answers from a task
// 10 ms later; the UAC's callback sees the 180 and then the 200.
func TestProvisionalThenFinal(t *testing.T) {
	sa, sb, _ := pair(t, netem.Config{})
	sb.OnRequest(func(tx *ServerTx) {
		_ = tx.RespondCode(StatusRinging, "")
		sb.conn.Host().Sched().After("b", 10*time.Millisecond, func(time.Time) {
			_ = tx.RespondCode(StatusOK, "")
		})
	})
	got := make(chan int, 4)
	if err := sa.SendRequest(testRequest(sa, MethodInvite), Addr{Node: "b", Port: DefaultPort},
		func(m *Message) { got <- m.StatusCode }); err != nil {
		t.Fatal(err)
	}
	var codes []int
	for len(codes) == 0 || codes[len(codes)-1] < 200 {
		select {
		case code := <-got:
			codes = append(codes, code)
		case <-time.After(5 * time.Second):
			t.Fatalf("responses %v, no final", codes)
		}
	}
	if len(codes) != 2 || codes[0] != StatusRinging || codes[1] != StatusOK {
		t.Fatalf("responses %v, want 180 then 200", codes)
	}
}

func TestRetransmissionOverLossyLink(t *testing.T) {
	// 40% frame loss: retransmissions must still get the exchange through.
	sa, sb, _ := pair(t, netem.Config{LossRate: 0.4, Seed: 11})
	var handled atomic.Int32
	sb.OnRequest(func(tx *ServerTx) {
		handled.Add(1)
		_ = tx.RespondCode(StatusOK, "")
	})
	resp, err := sa.Await(testRequest(sa, MethodOptions), Addr{Node: "b", Port: DefaultPort})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Retransmissions must not re-trigger the TU.
	time.Sleep(50 * time.Millisecond)
	if n := handled.Load(); n != 1 {
		t.Fatalf("handler invoked %d times", n)
	}
}

func TestTimeoutYields408(t *testing.T) {
	sa, _, n := pair(t, netem.Config{})
	n.SetLink("a", "b", false) // black hole
	resp, err := sa.Await(testRequest(sa, MethodOptions), Addr{Node: "b", Port: DefaultPort})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != StatusRequestTimeout {
		t.Fatalf("status = %d, want 408", resp.StatusCode)
	}
}

func TestInviteNon2xxGetsAck(t *testing.T) {
	sa, sb, _ := pair(t, netem.Config{})
	acked := make(chan struct{})
	sb.OnRequest(func(tx *ServerTx) {
		_ = tx.RespondCode(StatusBusyHere, "")
		// Look for the ACK on a task every 2 ms.
		check := new(clock.Task)
		check.Init(func(time.Time) {
			if tx.Acked() {
				close(acked)
				return
			}
			sb.after(check, 2*time.Millisecond)
		}, nil)
		sb.after(check, 0)
	})
	resp, err := sa.Await(testRequest(sa, MethodInvite), Addr{Node: "b", Port: DefaultPort})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != StatusBusyHere {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	select {
	case <-acked:
	case <-time.After(2 * time.Second):
		t.Fatal("transaction-level ACK never arrived")
	}
}

func TestDefaultHandlerRejects(t *testing.T) {
	sa, _, _ := pair(t, netem.Config{})
	// Peer stack has no handler installed: it must answer 503.
	resp, err := sa.Await(testRequest(sa, MethodOptions), Addr{Node: "b", Port: DefaultPort})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != StatusServiceUnavail {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestBranchesUnique(t *testing.T) {
	sa, _, _ := pair(t, netem.Config{})
	seen := make(map[string]bool)
	for range 100 {
		b := sa.NewVia().Branch()
		if seen[b] {
			t.Fatalf("duplicate branch %q", b)
		}
		seen[b] = true
	}
}

func TestPrepareForward(t *testing.T) {
	req := testRequest(&Stack{}, MethodInvite)
	req.MaxForwards = 2
	self := Addr{Node: "p", Port: 5060}
	fwd, err := PrepareForward(req, self)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.MaxForwards != 1 {
		t.Fatalf("max-forwards = %d", fwd.MaxForwards)
	}
	if req.MaxForwards != 2 {
		t.Fatal("original mutated")
	}
	fwd.MaxForwards = 0
	if _, err := PrepareForward(fwd, self); err != ErrTooManyHops {
		t.Fatalf("err = %v, want ErrTooManyHops", err)
	}
}

func TestPrepareResponseForward(t *testing.T) {
	resp := &Message{
		StatusCode: 200, Reason: "OK",
		From:   &NameAddr{URI: MustParseURI("sip:a@x")},
		To:     &NameAddr{URI: MustParseURI("sip:b@y")},
		CallID: "c", CSeq: CSeq{1, MethodInvite},
		MaxForwards: -1, Expires: -1,
		Via: []*Via{
			{Transport: "UDP", Host: "proxy", Port: 5060, Params: ";branch=z9hG4bK-p"},
			{Transport: "UDP", Host: "ua", Port: 5062, Params: ";branch=z9hG4bK-u"},
		},
	}
	self := Addr{Node: "proxy", Port: 5060}
	fwd, next, err := PrepareResponseForward(resp, self)
	if err != nil {
		t.Fatal(err)
	}
	if next.Node != "ua" || next.Port != 5062 {
		t.Fatalf("next = %+v", next)
	}
	if len(fwd.Via) != 1 || fwd.Via[0].Host != "ua" {
		t.Fatalf("via = %+v", fwd.Via)
	}
	// Forwarding when we are not the top Via is an error.
	if _, _, err := PrepareResponseForward(fwd, self); err == nil {
		t.Fatal("forwarded response with foreign top Via")
	}
}

func TestHasLoop(t *testing.T) {
	req := testRequest(&Stack{}, MethodInvite)
	self := Addr{Node: "p", Port: 5060}
	if HasLoop(req, self) {
		t.Fatal("loop detected in fresh request")
	}
	req.Via = append(req.Via, &Via{Transport: "UDP", Host: "p", Port: 5060})
	if !HasLoop(req, self) {
		t.Fatal("loop not detected")
	}
}

// TestBranchlessRequestsDoNotCollide: a top Via without the RFC 3261 cookie
// says nothing unique, so such requests are told apart by Call-ID, CSeq
// number and sent-by (RFC 3261 §17.2.3). Two unrelated branchless INVITEs
// each get a server transaction and reach the handler; a retransmission of
// either is absorbed by the one it belongs to.
func TestBranchlessRequestsDoNotCollide(t *testing.T) {
	sa, sb, _ := pair(t, netem.Config{})
	calls := make(chan string, 4)
	sb.OnRequest(func(tx *ServerTx) { calls <- tx.Request().CallID })
	dst := Addr{Node: "b", Port: DefaultPort}
	first, second := testRequest(sa, MethodInvite), testRequest(sa, MethodInvite)
	for _, req := range []*Message{first, second, first, second} {
		req.Via = []*Via{{Transport: "UDP", Host: "a", Port: DefaultPort}}
		if err := sa.Send(req, dst); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]int)
	for len(seen) < 2 {
		select {
		case id := <-calls:
			seen[id]++
		case <-time.After(2 * time.Second):
			t.Fatalf("handler saw %v, want both %s and %s", seen, first.CallID, second.CallID)
		}
	}
	select {
	case id := <-calls:
		t.Fatalf("retransmission of %s reached the handler again", id)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestRetransmissionDrawsSameBytes: a retransmitted INVITE and a
// retransmitted BYE are answered with the very bytes of the first final
// response — the server transaction renders the response it keeps again —
// and the TU is not asked twice.
func TestRetransmissionDrawsSameBytes(t *testing.T) {
	n := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(n.Close)
	ha, _ := n.AddHost("a", netem.Position{})
	hb, _ := n.AddHost("b", netem.Position{X: 10})
	ha.SetRouteProvider(direct{})
	hb.SetRouteProvider(direct{})
	ca, err := ha.Listen(DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := hb.Listen(DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	sb := NewStack(cb, SimConfig())
	t.Cleanup(sb.Close)
	var handled atomic.Int32
	sb.OnRequest(func(tx *ServerTx) {
		handled.Add(1)
		req := tx.Request()
		if req.Method == MethodInvite {
			_ = tx.RespondCode(StatusRinging, "")
		}
		resp := NewResponse(req, StatusOK, "")
		resp.To = resp.To.WithTag(sb.NewTag())
		resp.Contact = []*NameAddr{{URI: MustParseURI("sip:bob@b:5060")}}
		resp.ContentType, resp.Body = "application/sdp", []byte("v=0\r\no=bob 1 1 IN IP4 b\r\n")
		_ = tx.Respond(resp)
	})
	got := make(chan []byte, 8)
	ca.Handle(func(dg *netem.Datagram) { got <- bytes.Clone(dg.Data) })
	final := func() []byte {
		t.Helper()
		for {
			select {
			case raw := <-got:
				if bytes.HasPrefix(raw, []byte("SIP/2.0 200 ")) {
					return raw
				}
			case <-time.After(2 * time.Second):
				t.Fatal("no 200")
			}
		}
	}
	for _, method := range []string{MethodInvite, MethodBye} {
		req := NewRequest(method, MustParseURI("sip:bob@b:5060"))
		req.Via = []*Via{{Transport: "UDP", Host: "a", Port: DefaultPort, Params: Params(";branch=" + BranchPrefix + "-" + method)}}
		req.From = (&NameAddr{URI: MustParseURI("sip:alice@a")}).WithTag("a1")
		req.To = &NameAddr{URI: MustParseURI("sip:bob@b")}
		req.CallID, req.CSeq = "same-bytes@a", CSeq{Seq: 1, Method: method}
		wire := req.AppendTo(nil)
		if err := ca.WriteTo(wire, "b", DefaultPort); err != nil {
			t.Fatal(err)
		}
		first := final()
		if err := ca.WriteTo(wire, "b", DefaultPort); err != nil {
			t.Fatal(err)
		}
		if again := final(); !bytes.Equal(again, first) {
			t.Errorf("%s retransmitted: 200 differs from the first\nfirst %q\nagain %q", method, first, again)
		}
	}
	if handled.Load() != 2 {
		t.Errorf("TU handled %d requests, want 2", handled.Load())
	}
}

// TestTransactionAllocs pins what the transaction layer adds to a message: a
// client transaction is three allocations — one block with its Via and Via
// list, the branch, the bound timer callback — and, once the first final is
// kept, a later final sent and the kept one replayed none.
func TestTransactionAllocs(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// No timer fires while the counts are taken. What is sent lands on a
	// port that only counts it, and each run waits for its frames to land so
	// that the medium recycles their buffers.
	sa, sb, n := pairWith(t, netem.Config{}, Config{T1: time.Hour, T2: time.Hour})
	sink, err := n.Host("b").Listen(DefaultPort + 1)
	if err != nil {
		t.Fatal(err)
	}
	var landed atomic.Int64
	sink.Handle(func(*netem.Datagram) { landed.Add(1) })
	wait := func(want int64) {
		for landed.Load() < want {
			runtime.Gosched()
		}
	}
	sinkAddr := Addr{Node: "b", Port: DefaultPort + 1}
	req := testRequest(sa, MethodOptions)
	sent := int64(0)
	if got := testing.AllocsPerRun(100, func() {
		req.Via = nil
		if err := sa.SendRequest(req, sinkAddr, nil); err != nil {
			t.Fatal(err)
		}
		sent++
		wait(sent)
	}); got != 3 {
		t.Errorf("SendRequest: %.0f allocations, want 3", got)
	}
	inv := testRequest(sb, MethodInvite)
	inv.Via = []*Via{sb.NewVia()}
	tx := newServerTx(sb, inv, sinkAddr, false)
	resp := NewResponse(inv, StatusOK, "")
	if got := testing.AllocsPerRun(100, func() {
		_ = tx.Respond(resp)
		tx.replay()
		sent += 2
		wait(sent)
	}); got != 0 {
		t.Errorf("Respond and replay: %.0f allocations, want 0", got)
	}
}
