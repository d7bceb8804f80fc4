package sip

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
)

// Config tunes the transaction layer. The zero value gets RFC 3261 defaults;
// simulations scale T1 down.
type Config struct {
	// T1 is the RTT estimate driving retransmissions (default 500ms).
	T1 time.Duration
	// T2 caps non-INVITE retransmission intervals (default 4s).
	T2 time.Duration
	// Obs records per-leg INVITE spans and transaction counters. Nil
	// disables observability; the message path then pays one branch.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.T1 == 0 {
		c.T1 = 500 * time.Millisecond
	}
	if c.T2 == 0 {
		c.T2 = 4 * time.Second
	}
	return c
}

// SimConfig returns transaction timing scaled for in-memory simulation.
func SimConfig() Config {
	return Config{T1: 25 * time.Millisecond, T2: 200 * time.Millisecond}.withDefaults()
}

// RequestHandler is the transaction user for new server transactions. It
// runs on the node's shard, inline with the delivery of the request, and
// must not block: a handler that has to wait — for a lookup, a downstream
// transaction, a timer — goes on from that wait's callback.
type RequestHandler func(tx *ServerTx)

// Stack binds SIP message I/O and the transaction layer to one UDP-like
// port. Create with NewStack, release with Close.
//
// Datagrams arrive by conn callback on a delivery worker, and the
// retransmission and linger timers are tasks on the host's scheduler, keyed
// by the node so they never run concurrently. The transaction users — the
// request handler and each client transaction's response callback — run
// inline there too. A stack starts no goroutine.
type Stack struct {
	conn *netem.Conn
	cfg  Config
	clk  clock.Clock
	self Addr

	mu        sync.Mutex
	clientTxs map[txKey]*ClientTx
	// serverTxs holds the server transactions Proceeding or lingering; nil
	// once the linger task gave a burst back. lingerQ holds the finished ones'
	// keys in the order their finals went out, which is the order they
	// expire in; linger is its task, queued at the head's deadline.
	serverTxs map[txKey]*ServerTx
	lingerQ   clock.ExpiryQueue[txKey]
	linger    clock.Task
	handler   RequestHandler
	closed    bool
	// done is opened by Close, releasing Await.
	done clock.Gate
	// running is held while a datagram or a retransmission step is being
	// handled, so that Close can wait out the one in progress: no transaction
	// user runs once Close has returned.
	running sync.Mutex

	// sendBuf is what Send marshals into; the connection copies what it is
	// given, so one buffer serves every message whose bytes nobody keeps.
	sendMu  sync.Mutex
	sendBuf []byte

	seq atomic.Uint64

	// Pre-resolved obs handles; all nil when cfg.Obs is nil.
	obs         *obs.Observer
	obsRetrans  *obs.Counter
	obsTimeouts *obs.Counter
	obsInvites  *obs.Counter
}

// NewStack attaches a SIP endpoint to conn and starts receiving on it.
func NewStack(conn *netem.Conn, cfg Config) *Stack {
	cfg = cfg.withDefaults()
	s := &Stack{
		conn:      conn,
		cfg:       cfg,
		clk:       conn.Host().Clock(),
		self:      Addr{Node: conn.Host().ID(), Port: conn.LocalPort()},
		clientTxs: make(map[txKey]*ClientTx),
	}
	s.done.Init(s.clk)
	s.linger.Init(s.onLinger, nil)
	if cfg.Obs.Enabled() {
		s.obs = cfg.Obs
		s.obsRetrans = cfg.Obs.Counter("sip.retransmits")
		s.obsTimeouts = cfg.Obs.Counter("sip.tx.timeouts")
		s.obsInvites = cfg.Obs.Counter("sip.tx.invites")
	}
	s.conn.Handle(s.dispatch)
	return s
}

// Addr returns the local SIP transport address.
func (s *Stack) Addr() Addr { return s.self }

// after queues a transaction's timer task on the host's scheduler, d from
// now, under the node's key: the timers of one node never run concurrently.
func (s *Stack) after(t *clock.Task, d time.Duration) {
	s.conn.Host().Sched().At(string(s.self.Node), t, s.clk.Now().Add(d))
}

// OnRequest installs the handler for new incoming requests.
func (s *Stack) OnRequest(h RequestHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// Close terminates the stack: what arrives from now on is dropped, pending
// client transactions end without telling their callbacks (Await returns
// ErrTimeout), the linger queue stops, and Close returns once a transaction
// user already running has. The underlying connection is closed too. Close must not be called from a
// transaction user of this stack.
func (s *Stack) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.conn.Host().Sched().Cancel(string(s.self.Node), &s.linger)
	s.conn.Close()
	s.running.Lock()
	s.running.Unlock()
	s.done.Open()
}

func (s *Stack) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// branchParams returns Via parameters carrying a fresh RFC 3261 branch token,
// unique across nodes.
func (s *Stack) branchParams() Params {
	b := append(make([]byte, 0, 64), ";branch="+BranchPrefix+"-"...)
	b = append(append(b, s.self.Node...), '-')
	b = append(strconv.AppendUint(b, uint64(s.self.Port), 10), '-')
	return Params(strconv.AppendUint(b, s.seq.Add(1), 36))
}

// NewVia returns a Via for this stack with a fresh branch.
func (s *Stack) NewVia() *Via {
	return &Via{Transport: "UDP", Host: string(s.self.Node), Port: s.self.Port, Params: s.branchParams()}
}

// NewTag returns a fresh From/To tag.
func (s *Stack) NewTag() string {
	b := append(make([]byte, 0, 48), "tag-"...)
	b = append(append(b, s.self.Node...), '-')
	return string(strconv.AppendUint(b, s.seq.Add(1), 36))
}

// NewCallID returns a fresh Call-ID scoped to this node.
func (s *Stack) NewCallID() string {
	b := append(make([]byte, 0, 48), "cid-"...)
	b = append(strconv.AppendUint(b, s.seq.Add(1), 36), '@')
	return string(append(b, s.self.Node...))
}

// Send transmits a message without transaction state (responses, ACKs).
func (s *Stack) Send(m *Message, dst Addr) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.sendBuf = m.AppendTo(s.sendBuf[:0])
	return s.conn.WriteTo(s.sendBuf, dst.Node, dst.Port)
}

// SendRequest starts a client transaction: it pushes a fresh Via for this
// stack onto req (a new Via slice; the request's other fields are left as
// they are) and transmits with retransmissions. onResp gets the responses as
// ClientTx describes, on the node's shard; nil ignores them. The request
// belongs to the transaction from here on.
func (s *Stack) SendRequest(req *Message, dst Addr, onResp func(*Message)) error {
	if onResp == nil {
		onResp = func(*Message) {}
	}
	return s.startClientTx(s.newClientTx(req), req, dst, onResp)
}

// newClientTx allocates req's transaction and pushes its Via.
func (s *Stack) newClientTx(req *Message) *ClientTx {
	tx := &ClientTx{via: *s.NewVia()}
	req.Via = append(append(tx.vias[:0], &tx.via), req.Via...)
	return tx
}

// SendRequestPreVia starts a client transaction for a request whose Via
// stack is already in place — the CANCEL case, which must reuse the branch
// of the INVITE it cancels (RFC 3261 §9.1).
func (s *Stack) SendRequestPreVia(req *Message, dst Addr, onResp func(*Message)) error {
	if req.TopVia() == nil {
		return fmt.Errorf("sip: SendRequestPreVia needs a Via")
	}
	if onResp == nil {
		onResp = func(*Message) {}
	}
	return s.startClientTx(new(ClientTx), req, dst, onResp)
}

// startClientTx registers tx as req's client transaction and sends req. A nil
// onResp is Await's.
func (s *Stack) startClientTx(tx *ClientTx, req *Message, dst Addr, onResp func(*Message)) error {
	tx.stack, tx.key, tx.req, tx.dst, tx.onResp = s, req.txKey(), req, dst, onResp
	tx.timer.Init(tx.fire, nil)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("sip: stack closed")
	}
	s.clientTxs[tx.key] = tx
	s.mu.Unlock()
	tx.start()
	return nil
}

// Await is the blocking form of SendRequest: it returns the request's final
// response, the synthetic 408 included, or ErrTimeout if the stack closes
// first. It parks its caller, so it must not be called on a shard worker.
func (s *Stack) Await(req *Message, dst Addr) (*Message, error) {
	tx := s.newClientTx(req)
	tx.final.Init(s.clk)
	if err := s.startClientTx(tx, req, dst, nil); err != nil {
		return nil, err
	}
	if clock.Wait("sip.Stack.Await", -1, &tx.final, &s.done) != 0 {
		return nil, ErrTimeout
	}
	return tx.awaited, nil
}

// BuildCancel constructs the CANCEL for a previously sent request per
// RFC 3261 §9.1: same Request-URI, Call-ID, From, To, Route and top Via
// (including the branch), CSeq with the same number but method CANCEL.
func BuildCancel(invite *Message) *Message {
	return inTransactionOf(invite, MethodCancel)
}

// inTransactionOf builds the request that joins invite's transaction under
// another method, CANCEL or the ACK of a failure: everything that identifies
// the transaction and the dialog is the INVITE's own.
func inTransactionOf(invite *Message, method string) *Message {
	r := NewRequest(method, invite.RequestURI)
	r.Via = slices.Clip(invite.Via[:min(1, len(invite.Via))])
	r.From, r.To, r.Route = invite.From, invite.To, slices.Clip(invite.Route)
	r.CallID, r.CSeq = invite.CallID, CSeq{Seq: invite.CSeq.Seq, Method: method}
	return r
}

func (s *Stack) removeClientTx(key txKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.clientTxs, key)
}

// settle renders tx's first final response into one block of exact size,
// followed by copies of the strings of key, tx's key, and returns the
// response's bytes. The table's entry moves onto the copies, which pin
// nothing of the request, and is queued to expire 64×T1 from now.
func (s *Stack) settle(key txKey, tx *ServerTx, resp *Message) []byte {
	s.sendMu.Lock()
	s.sendBuf = resp.AppendTo(s.sendBuf[:0])
	n := len(s.sendBuf)
	b := append(make([]byte, 0, n+len(key.branch)+len(key.method)+len(key.callID)+len(key.sentBy.Node)), s.sendBuf...)
	s.sendMu.Unlock()
	b = append(append(append(append(b, key.branch...), key.method...), key.callID...), key.sentBy.Node...)
	k, kept := unsafe.String(unsafe.SliceData(b[n:]), len(b)-n), key // b never changes
	kept.branch, k = k[:len(key.branch)], k[len(key.branch):]
	kept.method, k = k[:len(key.method)], k[len(key.method):]
	kept.callID, kept.sentBy.Node = k[:len(key.callID)], netem.NodeID(k[len(key.callID):])
	at := s.clk.Now().Add(64 * s.cfg.T1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serverTxs[key] == tx && !s.closed {
		s.serverTxs[kept] = tx // an equal key: the map now holds kept's strings
		if s.lingerQ.Push(kept, at.UnixNano()); s.lingerQ.Len() == 1 {
			s.conn.Host().Sched().At(string(s.self.Node), &s.linger, at)
		}
	}
	return b[:n:n]
}

// onLinger is the linger queue's task: it forgets the finished server
// transactions whose 64×T1 are over and moves itself to the next deadline.
// The run that empties a queue that held more than a few keys, with no
// transaction left Proceeding, drops the table and the ring too: Go maps
// never shrink (see clock.ExpiryQueue.Trim).
func (s *Stack) onLinger(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.lingerQ.Len() > 0 {
		if _, at := s.lingerQ.Next(); now.UnixNano() < at {
			if !s.closed {
				s.conn.Host().Sched().At(string(s.self.Node), &s.linger, time.Unix(0, at))
			}
			return
		}
		delete(s.serverTxs, s.lingerQ.Pop())
	}
	if len(s.serverTxs) == 0 && s.lingerQ.Trim() {
		s.serverTxs = nil
	}
}

func (s *Stack) dispatch(dg *netem.Datagram) {
	s.running.Lock()
	defer s.running.Unlock()
	m, err := Parse(dg.Data)
	if err != nil {
		return // malformed datagrams are dropped, as a UA would
	}
	if m.IsResponse() {
		s.dispatchResponse(m)
	} else {
		s.dispatchRequest(m, Addr{Node: dg.SrcNode, Port: dg.SrcPort})
	}
}

func (s *Stack) dispatchResponse(m *Message) {
	s.mu.Lock()
	tx := s.clientTxs[m.txKey()]
	if s.closed {
		tx = nil
	}
	s.mu.Unlock()
	if tx != nil {
		tx.onResponse(m)
	}
}

func (s *Stack) dispatchRequest(m *Message, src Addr) {
	key := m.txKey()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	tx := s.serverTxs[key]
	if tx != nil {
		s.mu.Unlock()
		tx.onRequest(m)
		return
	}
	handler := s.handler
	// An ACK for a 2xx matches no transaction by design: it goes to the TU
	// as a standalone request (dialog confirmation) and is not remembered.
	ackOnly := m.Method == MethodAck
	if ackOnly && handler == nil {
		s.mu.Unlock()
		return
	}
	tx = newServerTx(s, m, src, ackOnly)
	if !ackOnly {
		if s.serverTxs == nil {
			s.serverTxs = make(map[txKey]*ServerTx)
		}
		s.serverTxs[key] = tx
	}
	s.mu.Unlock()
	if handler == nil {
		_ = tx.RespondCode(StatusServiceUnavail, "")
		return
	}
	handler(tx)
}
