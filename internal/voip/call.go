package voip

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/rtp"
	"siphoc/internal/sdp"
	"siphoc/internal/sip"
)

// State is a call's lifecycle state.
type State int

// Call states.
const (
	StateSetup State = iota + 1
	StateRinging
	StateEstablished
	StateEnded
	StateFailed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateSetup:
		return "setup"
	case StateRinging:
		return "ringing"
	case StateEstablished:
		return "established"
	case StateEnded:
		return "ended"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Call is one voice call, incoming or outgoing.
type Call struct {
	phone    *Phone
	outgoing bool
	callID   string

	mu        sync.Mutex
	state     State
	failCode  int
	localTag  string
	remoteTag string
	// remoteContact and routeSet are header values taken off messages, and
	// shared with them: read-only, replaced whole.
	remoteContact *sip.URI
	remoteSDP     *sdp.Session
	inviteTx      *sip.ServerTx // incoming calls: pending INVITE transaction
	inviteSent    *sip.Message  // outgoing calls: the INVITE as transmitted
	// ack is the outgoing call's ACK for the 200, sent again for every
	// retransmitted 200.
	ack      *sip.Message
	routeSet []*sip.NameAddr
	answered bool // a 200 OK was already sent for the INVITE

	media       *rtp.Session
	mediaNode   netem.NodeID
	mediaPort   uint16
	setupAt     time.Time
	establishAt time.Time

	established clock.Gate
	ended       clock.Gate
	endOnce     sync.Once

	// setupSpan is the call.setup anchor span (outgoing calls only); it is
	// the zero handle when tracing is disabled or the call is incoming.
	setupSpan obs.SpanHandle
	spanOnce  sync.Once
}

// newOutgoingCall allocates media and the dialog state for a call to uri.
func (p *Phone) newOutgoingCall(uri *sip.URI) (*Call, error) {
	mediaConn, err := p.host.Listen(0)
	if err != nil {
		return nil, err
	}
	c := &Call{
		phone:         p,
		outgoing:      true,
		callID:        p.stack.NewCallID(),
		state:         StateSetup,
		localTag:      p.stack.NewTag(),
		remoteContact: uri,
		media:         rtp.NewSession(mediaConn, uint32(mediaConn.LocalPort())),
		setupAt:       p.clk.Now(),
	}
	c.established.Init(p.clk)
	c.ended.Init(p.clk)
	// The call.setup span anchors the trace window: every other span that
	// overlaps it (SLP resolve, route discovery, SIP legs, gateway attach)
	// is stitched into this call's timeline.
	c.setupSpan = p.obs.StartSpan(c.callID, obs.PhaseSetup, string(p.host.ID()))
	p.obsPlaced.Inc()
	p.addCall(c)
	return c, nil
}

// newIncomingCall captures the dialog state from a ringing INVITE.
func (p *Phone) newIncomingCall(tx *sip.ServerTx) (*Call, error) {
	req := tx.Request()
	mediaConn, err := p.host.Listen(0)
	if err != nil {
		return nil, err
	}
	c := &Call{
		phone:     p,
		callID:    req.CallID,
		state:     StateSetup,
		localTag:  p.stack.NewTag(),
		remoteTag: req.From.Tag(),
		inviteTx:  tx,
		media:     rtp.NewSession(mediaConn, uint32(mediaConn.LocalPort())),
		setupAt:   p.clk.Now(),
	}
	c.established.Init(p.clk)
	c.ended.Init(p.clk)
	if len(req.Contact) > 0 {
		c.remoteContact = req.Contact[0].URI
	}
	// UAS route set: the Record-Route entries in request order
	// (RFC 3261 §12.1.1).
	c.routeSet = slices.Clip(req.RecordRoute)
	if len(req.Body) > 0 {
		if offer, err := sdp.Parse(req.Body); err == nil {
			c.remoteSDP = offer
			if node, port, err := offer.AudioEndpoint(); err == nil {
				c.mediaNode, c.mediaPort = netem.NodeID(node), port
			}
		}
	}
	return c, nil
}

// ID returns the Call-ID.
func (c *Call) ID() string { return c.callID }

// State returns the current call state.
func (c *Call) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// FailCode returns the SIP status that failed the call (0 otherwise).
func (c *Call) FailCode() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failCode
}

// SetupDuration returns how long call establishment took (valid once
// established).
func (c *Call) SetupDuration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.establishAt.IsZero() {
		return 0
	}
	return c.establishAt.Sub(c.setupAt)
}

// pending reports whether the call is still being set up. Called with c.mu
// held.
func (c *Call) pending() bool {
	return c.state == StateSetup || c.state == StateRinging
}

// ring moves a call being set up to Ringing.
func (c *Call) ring() {
	c.mu.Lock()
	if c.state == StateSetup {
		c.state = StateRinging
	}
	c.mu.Unlock()
}

// WaitEstablished blocks until the call connects, fails, or the timeout
// elapses on the phone's clock.
func (c *Call) WaitEstablished(timeout time.Duration) error {
	switch clock.Wait("voip.Call.WaitEstablished", timeout, &c.established, &c.ended) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("voip: call failed with status %d", c.FailCode())
	}
	return fmt.Errorf("voip: call establishment timed out")
}

// Trace returns the call's observability timeline: the recorded spans
// (SLP resolve, route discovery, SIP legs, gateway attach, media start)
// stitched under the call.setup anchor. With observability disabled it
// returns an empty, non-nil trace.
func (c *Call) Trace() *obs.CallTrace {
	return c.phone.obs.Trace(c.callID)
}

// WaitEnded blocks until the call is torn down or the timeout elapses.
func (c *Call) WaitEnded(timeout time.Duration) error {
	if clock.Wait("voip.Call.WaitEnded", timeout, &c.ended) != 0 {
		return fmt.Errorf("voip: call teardown timed out")
	}
	return nil
}

// SendVoice streams n synthetic voice frames to the remote media endpoint,
// blocking at the codec frame rate. It returns the number of frames sent.
func (c *Call) SendVoice(n int) int {
	st := c.StartVoice(n)
	if st == nil {
		return 0
	}
	return st.Wait()
}

// StartVoice begins streaming n synthetic voice frames to the remote media
// endpoint without blocking; the returned handle's Wait reports the frames
// sent. It returns nil when the call has no media endpoint yet.
func (c *Call) StartVoice(n int) *rtp.Stream {
	c.mu.Lock()
	node, port := c.mediaNode, c.mediaPort
	media := c.media
	c.mu.Unlock()
	if node == "" || media == nil {
		return nil
	}
	return media.StartStream(node, port, n)
}

// MediaStats returns the receive-side media quality snapshot.
func (c *Call) MediaStats() rtp.Stats {
	c.mu.Lock()
	media := c.media
	c.mu.Unlock()
	if media == nil {
		return rtp.Stats{}
	}
	return media.Stats()
}

// invite sends the INVITE; the call goes on from the responses to it, on
// the node's shard.
func (c *Call) invite() {
	p := c.phone
	offer := sdp.NewAudioOffer(p.cfg.User, string(p.host.ID()), c.media.Port())

	req := sip.NewRequest(sip.MethodInvite, c.remoteContact)
	req.From = p.identity.WithTag(c.localTag)
	req.To = &sip.NameAddr{URI: c.remoteContact}
	req.CallID = c.callID
	req.CSeq = sip.CSeq{Seq: p.nextCSeq(), Method: sip.MethodInvite}
	req.Contact = p.contact
	req.ContentType = sdp.ContentType
	req.Body = offer.Marshal()
	req.UserAgent = "siphoc-softphone/1.0"

	c.mu.Lock()
	c.inviteSent = req
	c.mu.Unlock()
	if err := p.stack.SendRequest(req, p.cfg.OutboundProxy, c.onInviteResponse); err != nil {
		c.endLocal(sip.StatusInternalError)
	}
}

func (c *Call) onInviteResponse(m *sip.Message) {
	switch {
	case m.StatusCode == sip.StatusRinging:
		c.ring()
	case m.StatusCode < 200:
	case m.StatusCode == sip.StatusOK:
		c.accepted(m)
	default:
		c.endLocal(m.StatusCode)
	}
}

// accepted takes the 200 for the INVITE: the dialog and media state come
// from it, and the ACK goes back through the outbound proxy carrying the
// dialog's route set (RFC 3261 §13.2.2.4). A retransmitted 200 means that
// ACK was lost, and it goes again.
func (c *Call) accepted(final *sip.Message) {
	p := c.phone
	c.mu.Lock()
	if ack := c.ack; ack != nil {
		c.mu.Unlock()
		_ = p.stack.Send(ack, p.cfg.OutboundProxy)
		return
	}
	c.remoteTag = final.To.Tag()
	if len(final.Contact) > 0 {
		c.remoteContact = final.Contact[0].URI
	}
	// UAC route set: Record-Route entries in reverse order (RFC 3261
	// §12.1.2).
	c.routeSet = slices.Clone(final.RecordRoute)
	slices.Reverse(c.routeSet)
	if len(final.Body) > 0 {
		if answer, err := sdp.Parse(final.Body); err == nil {
			c.remoteSDP = answer
			if node, port, err := answer.AudioEndpoint(); err == nil {
				c.mediaNode, c.mediaPort = netem.NodeID(node), port
			}
		}
	}
	invite := c.inviteSent
	ack := sip.NewRequest(sip.MethodAck, c.remoteContact)
	ack.Via = []*sip.Via{p.stack.NewVia()}
	ack.From = invite.From
	ack.To = final.To
	ack.CallID = c.callID
	ack.CSeq = sip.CSeq{Seq: invite.CSeq.Seq, Method: sip.MethodAck}
	ack.Route = c.routeSet
	c.ack = ack
	c.mu.Unlock()
	_ = p.stack.Send(ack, p.cfg.OutboundProxy)
	c.confirmEstablished()
}

// Answer accepts an incoming ringing call with an SDP answer.
func (c *Call) Answer() error {
	c.mu.Lock()
	if c.answered || !c.pending() {
		state, answered := c.state, c.answered
		c.mu.Unlock()
		return fmt.Errorf("voip: answer in state %s (answered=%v)", state, answered)
	}
	tx, offer := c.inviteTx, c.remoteSDP
	c.answered = tx != nil
	c.mu.Unlock()
	if tx == nil {
		return fmt.Errorf("voip: no pending INVITE")
	}
	p := c.phone
	resp := sip.NewResponse(tx.Request(), sip.StatusOK, "")
	resp.To = resp.To.WithTag(c.localTag)
	resp.Contact = p.contact
	if offer != nil {
		answer, err := sdp.Answer(offer, p.cfg.User, string(p.host.ID()), c.media.Port())
		if err != nil {
			_ = tx.RespondCode(488, "Not Acceptable Here")
			c.endLocal(488)
			return err
		}
		resp.ContentType = sdp.ContentType
		resp.Body = answer.Marshal()
	}
	if err := tx.Respond(resp); err != nil {
		return err
	}
	// The 200 goes again until the ACK confirms the call (RFC 3261
	// §13.3.1.4); past 64×T1 the call is left unconfirmed, not torn down.
	tx.RetransmitFinal(func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return !c.pending()
	})
	return nil
}

// Reject declines an incoming ringing call. An answered call is left alone:
// a final after the 200 would not end the caller's dialog, Hangup does.
func (c *Call) Reject(code int) error {
	c.mu.Lock()
	tx, answered := c.inviteTx, c.answered
	c.mu.Unlock()
	if tx == nil || answered {
		return fmt.Errorf("voip: no INVITE to reject (answered=%v)", answered)
	}
	if code == 0 {
		code = sip.StatusBusyHere
	}
	if err := tx.RespondCode(code, ""); err != nil {
		return err
	}
	c.endLocal(code)
	return nil
}

// cancelRemote handles a CANCEL from the caller: if the INVITE has not been
// answered yet, conclude it with 487 Request Terminated.
func (c *Call) cancelRemote() {
	c.mu.Lock()
	pending := !c.answered && c.pending()
	c.mu.Unlock()
	if pending {
		c.rejectPending(sip.StatusRequestTerminated)
	}
}

// rejectPending answers the pending INVITE with code (CANCEL handling).
func (c *Call) rejectPending(code int) {
	c.mu.Lock()
	tx := c.inviteTx
	c.mu.Unlock()
	if tx != nil {
		_ = tx.RespondCode(code, "")
	}
	c.endLocal(code)
}

// Cancel abandons an outgoing call that has not been answered yet
// (RFC 3261 §9.1): it sends the CANCEL and returns. The call ends with 487
// Request Terminated once the callee acknowledges the cancellation; the 200
// for the CANCEL itself is hop-by-hop and says nothing about the call.
func (c *Call) Cancel() error {
	c.mu.Lock()
	if !c.outgoing {
		c.mu.Unlock()
		return fmt.Errorf("voip: cancel on an incoming call (use Reject)")
	}
	if !c.pending() {
		st := c.state
		c.mu.Unlock()
		return fmt.Errorf("voip: cancel in state %s", st)
	}
	invite := c.inviteSent
	c.mu.Unlock()
	p := c.phone
	return p.stack.SendRequestPreVia(sip.BuildCancel(invite), p.cfg.OutboundProxy, nil)
}

// Hangup terminates an established call with BYE and returns once the BYE's
// final response has arrived.
func (c *Call) Hangup() error { return c.hangup(true) }

// StartHangup is Hangup without the wait: it sends the BYE, and the call
// ends when the BYE's final response arrives, which WaitEnded waits for.
func (c *Call) StartHangup() error { return c.hangup(false) }

func (c *Call) hangup(wait bool) error {
	c.mu.Lock()
	if c.state != StateEstablished {
		st := c.state
		c.mu.Unlock()
		return fmt.Errorf("voip: hangup in state %s", st)
	}
	remote, routes := c.remoteContact, c.routeSet
	localTag, remoteTag := c.localTag, c.remoteTag
	c.mu.Unlock()

	p := c.phone
	bye := sip.NewRequest(sip.MethodBye, remote)
	bye.Route = routes
	bye.From = p.identity.WithTag(localTag)
	bye.To = &sip.NameAddr{URI: remote}
	if remoteTag != "" {
		bye.To = bye.To.WithTag(remoteTag)
	}
	bye.CallID = c.callID
	bye.CSeq = sip.CSeq{Seq: p.nextCSeq(), Method: sip.MethodBye}
	if !wait {
		return p.stack.SendRequest(bye, p.cfg.OutboundProxy, func(resp *sip.Message) {
			if resp.StatusCode >= 200 {
				c.endLocal(0)
			}
		})
	}
	_, err := p.stack.Await(bye, p.cfg.OutboundProxy)
	c.endLocal(0)
	if err != nil {
		return fmt.Errorf("voip: bye: %w", err)
	}
	return nil
}

// confirmEstablished moves a call being set up to Established.
func (c *Call) confirmEstablished() {
	c.mu.Lock()
	if !c.pending() {
		c.mu.Unlock()
		return
	}
	c.state = StateEstablished
	c.establishAt = c.phone.clk.Now()
	establishAt, media := c.establishAt, c.media
	c.mu.Unlock()
	c.spanOnce.Do(func() {
		// End exactly at establishAt so the trace's setup window
		// matches SetupDuration to the nanosecond.
		c.setupSpan.EndAt(establishAt, "established")
	})
	p := c.phone
	if c.outgoing {
		p.obsEstablished.Inc()
		p.obsSetupDelay.Observe(c.SetupDuration())
	}
	if p.obs.Enabled() && media != nil {
		span := p.obs.StartSpan(c.callID, obs.PhaseMediaStart, string(p.host.ID()))
		media.OnFirstRecv(func(t time.Time) {
			span.EndAt(t, "first rtp packet")
		})
	}
	c.established.Open()
}

// endLocal finishes the call from this side; code != 0 marks failure.
func (c *Call) endLocal(code int) {
	c.endOnce.Do(func() {
		c.spanOnce.Do(func() {
			if c.setupSpan.Active() {
				c.setupSpan.End(fmt.Sprintf("failed status=%d", code))
			}
		})
		if c.outgoing && code != 0 {
			c.phone.obsFailed.Inc()
		}
		c.mu.Lock()
		if code != 0 {
			c.state = StateFailed
			c.failCode = code
		} else {
			c.state = StateEnded
		}
		media := c.media
		c.mu.Unlock()
		if media != nil {
			media.Close()
		}
		c.phone.removeCall(c.callID)
		c.ended.Open()
	})
}

// endRemote finishes the call after a remote BYE.
func (c *Call) endRemote() { c.endLocal(0) }
