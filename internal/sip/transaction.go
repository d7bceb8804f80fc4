package sip

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/obs"
)

// ClientTx is a client transaction (RFC 3261 §17.1): it retransmits the
// request over the unreliable transport until a response arrives or the
// transaction times out, and hands every response to the TU's callback.
type ClientTx struct {
	stack *Stack
	key   txKey
	req   *Message
	dst   Addr
	// onResp is the TU: it gets every provisional, then exactly one final —
	// a synthetic 408 when nothing final arrived in time — and, for an
	// INVITE, every retransmission of a 2xx while the transaction lingers.
	// Each response is the TU's to keep or change (a proxy pops its Via off
	// and responds with it). It runs on the node's shard and must not block.
	// Await leaves it nil and is handed the first final through final.
	onResp func(*Message)
	final  clock.Gate
	// awaited is the final response Await returns, set before final opens.
	awaited *Message

	mu        sync.Mutex
	finalSent bool
	retrans   int
	// lastProv stamps the most recent provisional response. For INVITE it
	// moves the transaction to Proceeding: retransmissions stop and the
	// Timer B deadline is re-armed from it (RFC 3261 §17.1.1.2).
	lastProv time.Time

	// timer is the transaction's one task, bound once and queued under the
	// node's key so that it is serialized with every other SIP timer on this
	// node: the retransmission schedule until a final response arrives, then
	// the linger behind it. Queuing it for the linger takes it off the
	// retransmission it was queued for. The schedule's state belongs to it.
	timer      clock.Task
	interval   time.Duration
	deadline   time.Time // Timer B / F
	proceeding bool

	// span traces this leg (INVITE only, observer enabled only); the zero
	// handle no-ops.
	span obs.SpanHandle

	// via and vias are the Via SendRequest pushes onto the request and the
	// list it heads, allocated with the transaction.
	via  Via
	vias [4]*Via
}

// ErrTimeout is what Await returns when the stack closes before the request
// drew a final response. A transaction that simply expires gets a synthetic
// 408 instead (see IsLocalTimeout).
var ErrTimeout = fmt.Errorf("sip: transaction timeout")

// localTimeoutReason marks the synthetic 408 a client transaction delivers
// when it expires without any network response.
const localTimeoutReason = "Request Timeout (local)"

// IsLocalTimeout reports whether m is the synthetic 408 generated locally on
// client-transaction expiry — the next hop never answered — as opposed to a
// 408 answered by the peer. Proxies use this to tell a dead route from a
// slow callee.
func (m *Message) IsLocalTimeout() bool {
	return m.StatusCode == StatusRequestTimeout && m.Reason == localTimeoutReason
}

func (tx *ClientTx) start() {
	s := tx.stack
	if s.obs != nil && tx.req.Method == MethodInvite {
		s.obsInvites.Inc()
		tx.span = s.obs.StartSpan(tx.req.CallID, obs.PhaseSIPLeg,
			string(s.self.Node)+"->"+string(tx.dst.Node))
	}
	_ = s.Send(tx.req, tx.dst)
	// A caller off the shard may see the final response arrive first; the
	// linger it armed then stands.
	tx.mu.Lock()
	if !tx.finalSent {
		tx.interval, tx.deadline = s.cfg.T1, s.clk.Now().Add(64*s.cfg.T1)
		s.after(&tx.timer, tx.interval)
	}
	tx.mu.Unlock()
}

// fire is the transaction's timer: the end of the linger once a final
// response has arrived, a step of the retransmission schedule before.
func (tx *ClientTx) fire(time.Time) {
	tx.mu.Lock()
	settled := tx.finalSent
	tx.mu.Unlock()
	if settled {
		tx.stack.removeClientTx(tx.key)
		return
	}
	tx.retransmitStep()
}

// retransmitStep is one step of the retransmission schedule: give up at the
// deadline, otherwise send the request again and re-arm at twice the interval.
func (tx *ClientTx) retransmitStep() {
	s := tx.stack
	s.running.Lock()
	defer s.running.Unlock()
	tx.mu.Lock()
	lastProv := tx.lastProv
	tx.mu.Unlock()
	if s.isClosed() {
		return
	}
	if tx.req.Method == MethodInvite && !lastProv.IsZero() {
		// Proceeding: a provisional means the next hop is alive, so
		// re-arm the Timer B deadline from the latest provisional
		// rather than giving up mid-setup — upstream proxies refresh
		// it with 100 Trying while they retry a dead route. Unlike RFC
		// 3261 §17.1.1.2 we keep retransmitting: the downstream server
		// transaction replays its last response on each retransmitted
		// request, which is how a 200 OK lost on the radio is
		// recovered.
		tx.proceeding = true
		if d := lastProv.Add(256 * s.cfg.T1); d.After(tx.deadline) {
			tx.deadline = d
		}
	}
	if !s.clk.Now().Before(tx.deadline) {
		// Timeout: synthesize a 408 so the TU sees a final answer.
		tx.mu.Lock()
		tx.finalSent = true
		tx.mu.Unlock()
		s.obsTimeouts.Inc()
		tx.endSpan(0)
		s.removeClientTx(tx.key)
		tx.respond(NewResponse(tx.req, StatusRequestTimeout, localTimeoutReason))
		return
	}
	_ = s.Send(tx.req, tx.dst)
	s.obsRetrans.Inc()
	tx.mu.Lock()
	tx.retrans++
	tx.mu.Unlock()
	tx.interval *= 2
	if (tx.req.Method != MethodInvite || tx.proceeding) && tx.interval > s.cfg.T2 {
		tx.interval = s.cfg.T2
	}
	s.after(&tx.timer, tx.interval)
}

// endSpan closes the leg span with the outcome — the final status, 0 for a
// timeout — and the retransmit count. Callers hold the finalSent transition,
// so it runs at most once per transaction.
func (tx *ClientTx) endSpan(status int) {
	if !tx.span.Active() {
		return
	}
	outcome := "timeout"
	if status != 0 {
		outcome = "final=" + strconv.Itoa(status)
	}
	tx.mu.Lock()
	n := tx.retrans
	tx.mu.Unlock()
	tx.span.End(outcome + " retrans=" + strconv.Itoa(n))
}

func (tx *ClientTx) onResponse(m *Message) {
	final := m.StatusCode >= 200
	tx.mu.Lock()
	first := !tx.finalSent
	if first && final {
		tx.finalSent = true
	} else if first {
		tx.lastProv = tx.stack.clk.Now()
	}
	tx.mu.Unlock()
	if !first {
		// Completed. A retransmitted 2xx of an INVITE still goes up: the
		// callee repeats its 200 until the ACK, which is the TU's to send
		// again (RFC 3261 §13.2.2.4). Anything else is absorbed.
		if final && m.StatusCode < 300 && tx.req.Method == MethodInvite {
			tx.respond(m)
		}
		return
	}
	if final {
		tx.endSpan(m.StatusCode)
		// INVITE with non-2xx final: transaction-level ACK (RFC 3261
		// §17.1.1.3), sent to the same destination as the INVITE.
		if tx.req.Method == MethodInvite && m.StatusCode >= 300 {
			_ = tx.stack.Send(buildTxAck(tx.req, m), tx.dst)
		}
		// Linger briefly (Timer D/K) so retransmitted finals are absorbed,
		// then terminate.
		tx.stack.after(&tx.timer, 4*tx.stack.cfg.T1)
	}
	tx.respond(m)
}

// respond hands a response to the TU, or the first final one to Await.
func (tx *ClientTx) respond(m *Message) {
	switch {
	case tx.onResp != nil:
		tx.onResp(m)
	case m.StatusCode >= 200 && !tx.final.IsOpen():
		tx.awaited = m
		tx.final.Open()
	}
}

// buildTxAck constructs the transaction-level ACK for a non-2xx INVITE
// response (RFC 3261 §17.1.1.3): same branch and headers as the INVITE, To
// from the response.
func buildTxAck(invite, resp *Message) *Message {
	ack := inTransactionOf(invite, MethodAck)
	ack.To = resp.To
	return ack
}

// ServerTx is a server transaction (RFC 3261 §17.2): it absorbs request
// retransmissions by replaying the last response. It has no expiry while the
// TU owes the final, so a proxy retrying a dead route is not handed the
// retransmitted request again, and lingers 64×T1 from the final (Timers H/J,
// RFC 3261 §17.2.1–17.2.2; Timer L, RFC 6026).
type ServerTx struct {
	stack *Stack
	src   Addr
	// ackOnly marks synthetic transactions wrapping a 2xx ACK, which
	// never send responses.
	ackOnly bool

	mu sync.Mutex
	// req and lastResp, the provisional sent last (RFC 3261 §17.2.1), go
	// when the first final does; final is its bytes (see Stack.settle).
	req      *Message
	lastResp *Message
	final    []byte
	acked    bool
}

func newServerTx(s *Stack, req *Message, src Addr, ackOnly bool) *ServerTx {
	return &ServerTx{stack: s, req: req, src: src, ackOnly: ackOnly}
}

// Request returns the triggering request until the final response is sent.
func (tx *ServerTx) Request() *Message {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.req
}

// Source returns the transport address the request arrived from — where
// responses must be sent (RFC 3261 §18.2.2 "received" behaviour).
func (tx *ServerTx) Source() Addr { return tx.src }

// Respond sends a response built by the TU, which must not change it after.
// A provisional is kept until the final; the first final is kept as its bytes
// alone, which answer every retransmitted request. A later final — a proxy
// relaying a retransmitted 2xx (RFC 3261 §16.7, RFC 6026) — is not kept.
func (tx *ServerTx) Respond(resp *Message) error {
	if tx.ackOnly {
		return fmt.Errorf("sip: ACK takes no response")
	}
	tx.mu.Lock()
	if tx.final != nil || resp.StatusCode < 200 {
		if tx.final == nil {
			tx.lastResp = resp
		}
		tx.mu.Unlock()
		return tx.stack.Send(resp, tx.src)
	}
	final := tx.stack.settle(tx.req.txKey(), tx, resp)
	tx.final, tx.req, tx.lastResp = final, nil, nil
	tx.mu.Unlock()
	return tx.stack.conn.WriteTo(final, tx.src.Node, tx.src.Port)
}

// RespondCode is a convenience wrapper building a response from the request.
// After the final there is none: it returns an error and sends nothing.
func (tx *ServerTx) RespondCode(code int, reason string) error {
	req := tx.Request()
	if req == nil {
		return fmt.Errorf("sip: %d after the final response", code)
	}
	resp := NewResponse(req, code, reason)
	if code > 100 && resp.To.Tag() == "" {
		resp.To = resp.To.WithTag(tx.stack.NewTag())
	}
	return tx.Respond(resp)
}

// Acked reports whether an ACK for this (INVITE) transaction arrived.
func (tx *ServerTx) Acked() bool {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.acked
}

// RetransmitFinal re-sends the 2xx the TU answered an INVITE with until
// confirmed reports true — the TU has seen the ACK, which matches no
// transaction — first after T1, then at doubling intervals capped at T2, and
// gives up silently after 64×T1 (RFC 3261 §13.3.1.4). Call it once, after
// Respond. confirmed runs on the node's shard and must not block.
func (tx *ServerTx) RetransmitFinal(confirmed func() bool) {
	s := tx.stack
	interval, giveUp := s.cfg.T1, s.clk.Now().Add(64*s.cfg.T1)
	t := new(clock.Task)
	t.Init(func(now time.Time) {
		if confirmed() || !now.Before(giveUp) || s.isClosed() {
			return
		}
		tx.replay()
		interval = min(2*interval, s.cfg.T2)
		s.after(t, interval)
	}, nil)
	s.after(t, interval)
}

// onRequest handles retransmissions and transaction-level ACKs.
func (tx *ServerTx) onRequest(m *Message) {
	if m.Method == MethodAck {
		tx.mu.Lock()
		tx.acked = true
		tx.mu.Unlock()
		return
	}
	tx.replay()
}

// replay sends the last response again, if there is one.
func (tx *ServerTx) replay() {
	tx.mu.Lock()
	final, prov := tx.final, tx.lastResp
	tx.mu.Unlock()
	switch {
	case final != nil:
		_ = tx.stack.conn.WriteTo(final, tx.src.Node, tx.src.Port)
	case prov != nil:
		_ = tx.stack.Send(prov, tx.src)
	}
}
