package sip

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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

// TestServerTxExpiry pins the server transaction's lifetime on the
// scheduler. Its expiry step comes round every 64×T1: while the TU owes a
// final response the step does nothing, however often it fires, and the
// first one after the final is out forgets the transaction.
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
	present := func() bool {
		_, ok := sb.FindInviteServerTx(branch)
		return ok
	}

	// Proceeding: three expiry steps pass and the transaction is still
	// there. Stop half a lifetime before the fourth.
	fake.Sleep(3*lifetime + lifetime/2)
	if !present() {
		t.Fatal("server transaction expired while the TU still owed a final response")
	}
	if err := stx.RespondCode(StatusOK, ""); err != nil {
		t.Fatal(err)
	}
	// Completed: it stays until the fourth step, and goes with it.
	fake.Sleep(lifetime / 4)
	if !present() {
		t.Fatal("server transaction forgotten before its expiry step")
	}
	fake.Sleep(lifetime / 2)
	if present() {
		t.Fatal("completed server transaction survived its expiry step")
	}
	sa.Close()
	sb.Close()
	n.Close()
	settleGoroutines(t, baseline)
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
