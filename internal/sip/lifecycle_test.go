package sip

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
	"weak"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/testutil"
)

// settleGoroutines fails the test unless the goroutine count comes back to
// baseline: nothing a stack or its network started may outlive their Close.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	if err := testutil.SettleGoroutines(baseline, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// fakeT1 is the lifecycle tests' T1: short, so that a 64×T1 lifetime is a
// quarter of a second of virtual time.
const fakeT1 = 4 * time.Millisecond

// fakePair is pair on a fake clock.
func fakePair(t *testing.T) (sa, sb *Stack, n *netem.Network, fake *clock.Fake) {
	t.Helper()
	fake = clock.NewFake(time.Unix(2_000_000, 0))
	sa, sb, n = pairWith(t, netem.Config{Clock: fake, Shards: 1},
		Config{T1: fakeT1, T2: 8 * fakeT1})
	return sa, sb, n, fake
}

// TestCloseDuringTraffic closes a stack while requests are arriving at it,
// a few hundred times over with the close moved about relative to the
// arrivals. Every arrival decides under the stack's lock whether it may still
// start a handler, so Close's wait never meets an Add from zero (a WaitGroup
// misuse the race detector reports), and no handler is running, or starts,
// once Close has returned.
func TestCloseDuringTraffic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Frames are due the moment they are sent, so an arrival is a few
	// microseconds behind its send and not a timer wake-up behind it.
	n := netem.NewNetwork(netem.Config{BaseDelay: -1, BytesPerSecond: 1e15})
	ha, err := n.AddHost("a", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n.AddHost("b", netem.Position{X: 10})
	if err != nil {
		t.Fatal(err)
	}
	ha.SetRouteProvider(direct{})
	ca, err := ha.Listen(DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	sa := NewStack(ca, SimConfig())
	dst := Addr{Node: "b", Port: DefaultPort}

	for round := range 400 {
		cb, err := hb.Listen(DefaultPort)
		if err != nil {
			t.Fatal(err)
		}
		sb := NewStack(cb, SimConfig())
		var closed atomic.Bool
		sb.OnRequest(func(tx *ServerTx) {
			if closed.Load() {
				t.Error("handler started after Close returned")
			}
			time.Sleep(20 * time.Microsecond) // still running when Close waits
			if closed.Load() {
				t.Error("handler still running after Close returned")
			}
		})
		// Two new transactions at b, each with a branch of its own: a request
		// and a 2xx ACK, which takes the other way to a handler. Nothing
		// orders this goroutine after the handlers they start.
		for _, method := range []string{MethodOptions, MethodAck} {
			req := testRequest(sa, method)
			req.Via = []*Via{sa.NewVia()}
			if err := sa.Send(req, dst); err != nil {
				t.Fatal(err)
			}
			for spin := time.Now(); time.Since(spin) < time.Duration(round%40)*time.Microsecond; {
			}
		}
		sb.Close()
		closed.Store(true)
	}
	sa.Close()
	n.Close()
	settleGoroutines(t, baseline)
}

// TestCloseUnblocksAwait pins that closing a stack ends a client transaction
// still waiting for its answer: Await returns instead of hanging until
// Timer B, and a retransmission step that fires afterwards does nothing.
func TestCloseUnblocksAwait(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sa, sb, n, fake := fakePair(t)
	sb.OnRequest(func(*ServerTx) {}) // never answers
	// Close the stack from a task once the request and two retransmissions
	// have gone out.
	var sentBeforeClose int64
	sa.conn.Host().Sched().After("a", 4*fakeT1, func(time.Time) {
		sentBeforeClose = n.Stats().DataFrames
		sa.Close()
	})
	if _, err := sa.Await(testRequest(sa, MethodOptions), Addr{Node: "b", Port: DefaultPort}); err != ErrTimeout {
		t.Fatalf("Await after Close: err = %v, want ErrTimeout", err)
	}
	if sentBeforeClose < 3 {
		t.Fatal("request was never retransmitted")
	}
	sent := n.Stats().DataFrames
	fake.Sleep(70 * fakeT1)
	// b's stack is still up and a's retransmission chain had a step pending.
	if got := n.Stats().DataFrames; got != sent {
		t.Fatalf("closed stack sent %d more frames", got-sent)
	}
	sb.Close()
	n.Close()
	settleGoroutines(t, baseline)
}

// holdsInviteTx reports whether s holds the INVITE server transaction with
// the given branch.
func holdsInviteTx(s *Stack, branch string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.serverTxs[txKey{branch: branch, method: MethodInvite}]
	return ok
}

// TestServerTxExpiry pins the server transaction's lifetime on the
// scheduler: while the TU owes a final response nothing expires it, however
// long that takes, and once the final is out it lingers 64×T1 from the final
// and not a moment longer (Timers H/J, RFC 3261 §17.2.1–17.2.2; Timer L, RFC
// 6026).
func TestServerTxExpiry(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sa, sb, n, fake := fakePair(t)
	const lifetime = 64 * fakeT1
	got := make(chan *ServerTx, 1)
	sb.OnRequest(func(tx *ServerTx) {
		_ = tx.RespondCode(StatusRinging, "")
		got <- tx
	})
	req := testRequest(sa, MethodInvite)
	if err := sa.SendRequest(req, Addr{Node: "b", Port: DefaultPort}, nil); err != nil {
		t.Fatal(err)
	}
	branch := req.TopVia().Branch()
	var stx *ServerTx
	fake.Sleep(fakeT1)
	select {
	case stx = <-got:
	default:
		t.Fatal("INVITE never reached the handler")
	}

	// Proceeding: three and a half lifetimes pass and the transaction is
	// still there.
	fake.Sleep(3*lifetime + lifetime/2)
	if !holdsInviteTx(sb, branch) {
		t.Fatal("server transaction expired while the TU still owed a final response")
	}
	if err := stx.RespondCode(StatusOK, ""); err != nil {
		t.Fatal(err)
	}
	// Completed: it stays until 64×T1 after the final, and goes then.
	fake.Sleep(lifetime - fakeT1)
	if !holdsInviteTx(sb, branch) {
		t.Fatal("server transaction forgotten before 64×T1 after its final")
	}
	fake.Sleep(2 * fakeT1)
	if holdsInviteTx(sb, branch) {
		t.Fatal("completed server transaction survived 64×T1 after its final")
	}
	sa.Close()
	sb.Close()
	n.Close()
	settleGoroutines(t, baseline)
}

// rawClient listens on a's second port, where the tests send requests of
// their own making from, and returns the responses that port receives.
func rawClient(t *testing.T, n *netem.Network) (*netem.Conn, <-chan []byte) {
	t.Helper()
	c, err := n.Host("a").Listen(DefaultPort + 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 16)
	c.Handle(func(dg *netem.Datagram) { got <- bytes.Clone(dg.Data) })
	return c, got
}

// rawInvite is an INVITE from a's second port with the given branch, as it
// goes on the wire.
func rawInvite(branch string) []byte {
	req := NewRequest(MethodInvite, MustParseURI("sip:bob@b"))
	req.Via = []*Via{{Transport: "UDP", Host: "a", Port: DefaultPort + 1, Params: Params(";branch=" + BranchPrefix + "-" + branch)}}
	req.From = (&NameAddr{URI: MustParseURI("sip:alice@a")}).WithTag("a1")
	req.To = &NameAddr{URI: MustParseURI("sip:bob@b")}
	req.CallID, req.CSeq = branch+"@a", CSeq{Seq: 1, Method: MethodInvite}
	return req.AppendTo(nil)
}

// nextFinal returns the next final response got holds, failing the test if
// there is none.
func nextFinal(t *testing.T, got <-chan []byte) []byte {
	t.Helper()
	for {
		select {
		case raw := <-got:
			if !bytes.HasPrefix(raw, []byte("SIP/2.0 1")) {
				return raw
			}
		default:
			t.Fatal("no final response")
		}
	}
}

// TestLateFinalLingersFull64T1: the linger starts at the final response, not
// at the request. The TU answers 63×T1 after the INVITE arrived; a
// retransmission 60×T1 after that is answered with the final's bytes and does
// not reach the TU, and the transaction is gone 64×T1 after the final. A
// linger counted from the request would have ended a T1 after the final, and
// the retransmission would have opened a second transaction.
func TestLateFinalLingersFull64T1(t *testing.T) {
	_, sb, n, fake := fakePair(t)
	var handled atomic.Int32
	sb.OnRequest(func(tx *ServerTx) {
		handled.Add(1)
		_ = tx.RespondCode(StatusRinging, "")
		sb.conn.Host().Sched().After("b", 63*fakeT1, func(time.Time) { _ = tx.RespondCode(StatusOK, "") })
	})
	conn, got := rawClient(t, n)
	wire := rawInvite("late")
	if err := conn.WriteTo(wire, "b", DefaultPort); err != nil {
		t.Fatal(err)
	}
	fake.Sleep(65 * fakeT1)
	first := nextFinal(t, got)
	fake.Sleep(58 * fakeT1) // 60×T1 after the final, less the INVITE's flight
	if err := conn.WriteTo(wire, "b", DefaultPort); err != nil {
		t.Fatal(err)
	}
	fake.Sleep(fakeT1)
	if again := nextFinal(t, got); !bytes.Equal(again, first) {
		t.Fatalf("retransmission 60×T1 after the final drew other bytes\nfirst %q\nagain %q", first, again)
	}
	if handled.Load() != 1 || !holdsInviteTx(sb, BranchPrefix+"-late") {
		t.Fatalf("TU handled %d requests, want 1; the transaction must linger", handled.Load())
	}
	fake.Sleep(4 * fakeT1) // 64×T1 after the final, and a little
	if holdsInviteTx(sb, BranchPrefix+"-late") {
		t.Fatal("server transaction survived 64×T1 after its final")
	}
}

// TestFinishedServerTxPinsNoMessage: once the final response is out, the
// transaction holds neither the parsed request nor any response Message —
// only the final's bytes, which a retransmission still draws unchanged.
func TestFinishedServerTxPinsNoMessage(t *testing.T) {
	_, sb, n, fake := fakePair(t)
	var req, resp weak.Pointer[Message]
	var text weak.Pointer[byte] // the request's bytes, which its key's strings alias
	sb.OnRequest(func(tx *ServerTx) {
		r := tx.Request()
		_ = tx.RespondCode(StatusRinging, "")
		ok := NewResponse(r, StatusOK, "")
		ok.To = ok.To.WithTag(sb.NewTag())
		req, resp, text = weak.Make(r), weak.Make(ok), weak.Make(unsafe.StringData(r.CallID))
		_ = tx.Respond(ok)
		if tx.Request() != nil {
			t.Error("Request() still answers after the final")
		}
		if err := tx.RespondCode(StatusBusyHere, ""); err == nil {
			t.Error("RespondCode after the final sent a second final")
		}
	})
	conn, got := rawClient(t, n)
	wire := rawInvite("pins")
	if err := conn.WriteTo(wire, "b", DefaultPort); err != nil {
		t.Fatal(err)
	}
	fake.Sleep(2 * fakeT1)
	first := nextFinal(t, got)
	runtime.GC()
	if req.Value() != nil || resp.Value() != nil || text.Value() != nil {
		t.Fatalf("finished transaction pins the request (%v, its bytes %v) or the response (%v)",
			req.Value() != nil, text.Value() != nil, resp.Value() != nil)
	}
	if err := conn.WriteTo(wire, "b", DefaultPort); err != nil {
		t.Fatal(err)
	}
	fake.Sleep(2 * fakeT1)
	if again := nextFinal(t, got); !bytes.Equal(again, first) {
		t.Fatalf("replay differs from the first final\nfirst %q\nagain %q", first, again)
	}
	select {
	case raw := <-got:
		t.Fatalf("a second final went out: %q", raw)
	default:
	}
}

// TestServerTxLingerTaskAllocFree: a run of the linger task — forget what is
// due, move itself to the next deadline — allocates nothing.
func TestServerTxLingerTaskAllocFree(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sa, sb, _, fake := fakePair(t)
	sb.OnRequest(func(tx *ServerTx) { _ = tx.RespondCode(StatusOK, "") })
	const runs = 100
	for range runs + 1 { // one for AllocsPerRun's warm-up
		req := testRequest(sa, MethodOptions)
		req.Via = []*Via{sa.NewVia()}
		if err := sa.Send(req, Addr{Node: "b", Port: DefaultPort}); err != nil {
			t.Fatal(err)
		}
		fake.Sleep(fakeT1 / 8) // each final due at an instant of its own
	}
	next := func() (time.Time, bool) {
		sb.mu.Lock()
		defer sb.mu.Unlock()
		if sb.lingerQ.Len() == 0 {
			return time.Time{}, false
		}
		_, at := sb.lingerQ.Next()
		return time.Unix(0, at), true
	}
	if _, ok := next(); !ok {
		t.Fatal("no finished transaction lingers")
	}
	popped := 0
	if got := testing.AllocsPerRun(runs, func() {
		if at, ok := next(); ok {
			sb.onLinger(at)
			popped++
		}
	}); got != 0 {
		t.Errorf("linger task run: %.1f allocations, want 0", got)
	}
	if popped != runs+1 {
		t.Errorf("%d runs forgot a transaction, want %d", popped, runs+1)
	}
}

// TestServerTxTableGivesMemoryBack: a burst of transactions grows the table
// and the linger queue, and 64×T1 after the last final both are gone.
func TestServerTxTableGivesMemoryBack(t *testing.T) {
	sa, sb, _, fake := fakePair(t)
	var handled atomic.Int32
	sb.OnRequest(func(tx *ServerTx) {
		handled.Add(1)
		_ = tx.RespondCode(StatusOK, "")
	})
	const burst = 1000
	for range burst {
		req := testRequest(sa, MethodOptions)
		req.Via = []*Via{sa.NewVia()}
		if err := sa.Send(req, Addr{Node: "b", Port: DefaultPort}); err != nil {
			t.Fatal(err)
		}
	}
	fake.Sleep(fakeT1)
	sb.mu.Lock()
	held := len(sb.serverTxs)
	sb.mu.Unlock()
	if handled.Load() != burst || held != burst {
		t.Fatalf("%d requests handled, %d transactions held; want %d", handled.Load(), held, burst)
	}
	fake.Sleep(64 * fakeT1)
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.serverTxs != nil || !reflect.DeepEqual(sb.lingerQ, clock.ExpiryQueue[txKey]{}) {
		t.Fatalf("after the linger the table (%d entries) or the queue (%d keys) kept its storage",
			len(sb.serverTxs), sb.lingerQ.Len())
	}
}

// TestFinalsFromManyGoroutines: on the system clock, four goroutines off the
// shard answer 64 INVITEs at once while their retransmissions arrive and the
// linger task drains the table on the shard worker. Every caller gets its
// 200, and 64×T1 after the last final the table is empty.
func TestFinalsFromManyGoroutines(t *testing.T) {
	sa, sb, _ := pairWith(t, netem.Config{}, Config{T1: time.Millisecond, T2: 8 * time.Millisecond})
	const calls = 64
	txs := make(chan *ServerTx, calls) // one per INVITE: the handler never blocks
	sb.OnRequest(func(tx *ServerTx) { txs <- tx })
	var answer, await sync.WaitGroup
	for range 4 {
		answer.Add(1)
		go func() {
			defer answer.Done()
			for tx := range txs {
				time.Sleep(time.Millisecond) // let a retransmission or two in
				_ = tx.RespondCode(StatusOK, "")
			}
		}()
	}
	for range calls {
		await.Add(1)
		go func() {
			defer await.Done()
			resp, err := sa.Await(testRequest(sa, MethodInvite), Addr{Node: "b", Port: DefaultPort})
			if err != nil || resp.StatusCode != StatusOK {
				t.Errorf("Await: %v, %+v", err, resp)
			}
		}()
	}
	await.Wait()
	close(txs)
	answer.Wait()
	held := func() bool {
		sb.mu.Lock()
		defer sb.mu.Unlock()
		return len(sb.serverTxs) > 0 || sb.lingerQ.Len() > 0
	}
	for deadline := time.Now().Add(5 * time.Second); held(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("transactions still held 5 s after the last final")
		}
	}
}

// TestProceedingReplaysProvisional: a server transaction whose provisional
// was lost on the radio sends it again when the request is retransmitted
// (RFC 3261 §17.2.1), instead of leaving the client without a sign of life
// until the final response; the TU is not bothered a second time.
func TestProceedingReplaysProvisional(t *testing.T) {
	sa, sb, n, fake := fakePair(t)
	var handled atomic.Int32
	sb.OnRequest(func(tx *ServerTx) {
		handled.Add(1)
		n.SetLink("a", "b", false) // the first 100 is lost
		_ = tx.RespondCode(StatusTrying, "")
		n.SetLink("a", "b", true)
	})
	responses := make(chan *Message, 8)
	if err := sa.SendRequest(testRequest(sa, MethodInvite), Addr{Node: "b", Port: DefaultPort},
		func(m *Message) { responses <- m }); err != nil {
		t.Fatal(err)
	}
	var got *Message
	fake.Sleep(16 * fakeT1)
	select {
	case got = <-responses:
	default:
		t.Fatal("retransmitted INVITE drew no provisional from a transaction in Proceeding")
	}
	if got.StatusCode != StatusTrying || handled.Load() != 1 {
		t.Fatalf("got a %d after %d handler calls, want the replayed 100 and one call", got.StatusCode, handled.Load())
	}
}
