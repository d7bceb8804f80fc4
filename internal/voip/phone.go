// Package voip implements a software SIP phone — the stand-in for the
// out-of-the-box VoIP applications the paper runs on top of SIPHoc (Kphone,
// Twinkle, Minisip). It is deliberately MANET-unaware: it speaks plain
// RFC 3261 to whatever outbound proxy it is configured with, exactly like
// the configuration in the paper's Figure 2 where the outbound proxy is set
// to localhost so that all SIP traffic flows through the SIPHoc proxy.
package voip

import (
	"fmt"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/sip"
)

// Config mirrors a softphone's account settings (paper Figure 2).
type Config struct {
	// User is the account name, e.g. "alice".
	User string
	// Domain is the SIP provider domain, e.g. "voicehoc.ch".
	Domain string
	// Password holds the account's digest credentials, used when the
	// registrar answers REGISTER with a 401 challenge.
	Password string
	// OutboundProxy is where all SIP traffic is sent. SIPHoc deployments
	// set this to the local node's proxy ("localhost" in the paper).
	OutboundProxy sip.Addr
	// Port is the UA's SIP port (default 5062).
	Port uint16
	// NoAutoAnswer leaves incoming calls ringing until the application
	// answers them off the Incoming channel. By default a phone answers
	// every call the moment it rings — handy for experiments.
	NoAutoAnswer bool
	// RegisterTTL is the registration lifetime requested (default 60s).
	RegisterTTL time.Duration
	// SIP tunes the transaction layer (default sip.SimConfig()).
	SIP sip.Config
	// Obs records the call-setup anchor span, the media-start span and
	// call counters; it is also propagated to the embedded SIP stack
	// unless SIP.Obs is already set. Nil disables.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Port == 0 {
		c.Port = 5062
	}
	if c.RegisterTTL == 0 {
		c.RegisterTTL = 60 * time.Second
	}
	if c.SIP.T1 == 0 {
		c.SIP = sip.SimConfig()
	}
	if c.SIP.Obs == nil {
		c.SIP.Obs = c.Obs
	}
	return c
}

// Phone is one softphone instance bound to a node.
type Phone struct {
	host *netem.Host
	cfg  Config
	clk  clock.Clock
	obs  *obs.Observer

	// Pre-resolved obs handles; nil when cfg.Obs is nil.
	obsPlaced      *obs.Counter
	obsEstablished *obs.Counter
	obsFailed      *obs.Counter
	obsSetupDelay  *obs.Histogram

	stack *sip.Stack
	// identity is the account's name-addr and contact the one Contact header
	// every message of this phone carries; both are shared by all of them.
	identity *sip.NameAddr
	contact  []*sip.NameAddr

	mu       sync.Mutex
	cseq     uint32
	calls    map[string]*Call // by Call-ID
	incoming chan *Call
	started  bool
	closed   bool
}

// New creates a phone on host with the given account configuration.
func New(host *netem.Host, cfg Config) *Phone {
	cfg = cfg.withDefaults()
	p := &Phone{
		host:     host,
		cfg:      cfg,
		clk:      host.Clock(),
		obs:      cfg.Obs,
		calls:    make(map[string]*Call),
		incoming: make(chan *Call, 8),
		identity: &sip.NameAddr{URI: &sip.URI{Scheme: "sip", User: cfg.User, Host: cfg.Domain}},
		contact: []*sip.NameAddr{{URI: &sip.URI{
			Scheme: "sip", User: cfg.User, Host: string(host.ID()), Port: cfg.Port,
		}}},
	}
	if p.obs.Enabled() {
		p.obsPlaced = p.obs.Counter("voip.calls.placed")
		p.obsEstablished = p.obs.Counter("voip.calls.established")
		p.obsFailed = p.obs.Counter("voip.calls.failed")
		p.obsSetupDelay = p.obs.Histogram("voip.setup.delay", nil)
	}
	return p
}

// AOR returns the phone's address of record, e.g. "alice@voicehoc.ch".
func (p *Phone) AOR() string { return p.cfg.User + "@" + p.cfg.Domain }

// Addr returns the UA's SIP transport address.
func (p *Phone) Addr() sip.Addr {
	return sip.Addr{Node: p.host.ID(), Port: p.cfg.Port}
}

// Incoming delivers calls that are ringing; with auto-answer they are also
// delivered, already answered.
func (p *Phone) Incoming() <-chan *Call { return p.incoming }

// Start binds the UA port.
func (p *Phone) Start() error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("voip: phone already started")
	}
	p.started = true
	p.mu.Unlock()
	conn, err := p.host.Listen(p.cfg.Port)
	if err != nil {
		return fmt.Errorf("voip: bind UA port: %w", err)
	}
	p.stack = sip.NewStack(conn, p.cfg.SIP)
	p.stack.OnRequest(p.onRequest)
	return nil
}

// Stop hangs up all calls and shuts the UA down.
func (p *Phone) Stop() {
	p.mu.Lock()
	if !p.started || p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	calls := make([]*Call, 0, len(p.calls))
	for _, c := range p.calls {
		calls = append(calls, c)
	}
	p.mu.Unlock()
	for _, c := range calls {
		c.endLocal(0)
	}
	p.stack.Close()
}

func (p *Phone) nextCSeq() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cseq++
	return p.cseq
}

// Register registers the phone with its configured account via the outbound
// proxy, blocking until the final response.
func (p *Phone) Register() error {
	return p.register(int(p.cfg.RegisterTTL / time.Second))
}

// Unregister removes the registration (Expires: 0).
func (p *Phone) Unregister() error { return p.register(0) }

func (p *Phone) register(expires int) error {
	build := func() *sip.Message {
		req := sip.NewRequest(sip.MethodRegister, &sip.URI{Scheme: "sip", Host: p.cfg.Domain})
		req.From = p.identity.WithTag(p.stack.NewTag())
		req.To = p.identity
		req.CallID = p.stack.NewCallID()
		req.CSeq = sip.CSeq{Seq: p.nextCSeq(), Method: sip.MethodRegister}
		req.Contact = p.contact
		req.Expires = expires
		req.UserAgent = "siphoc-softphone/1.0"
		return req
	}
	send := func(req *sip.Message) (*sip.Message, error) {
		resp, err := p.stack.Await(req, p.cfg.OutboundProxy)
		if err != nil {
			return nil, fmt.Errorf("voip: register: %w", err)
		}
		return resp, nil
	}
	resp, err := send(build())
	if err != nil {
		return err
	}
	if resp.StatusCode == sip.StatusUnauthorized && p.cfg.Password != "" {
		challenge, ok := resp.Challenge()
		if !ok {
			return fmt.Errorf("voip: 401 without a digest challenge")
		}
		retry := build()
		retry.SetAuthorization(challenge.Answer(
			p.cfg.User, p.cfg.Password, sip.MethodRegister,
			retry.RequestURI.String(), "cn-"+p.stack.NewTag(), 1,
		))
		if resp, err = send(retry); err != nil {
			return err
		}
	}
	if resp.StatusCode != sip.StatusOK {
		return fmt.Errorf("voip: register rejected: %d %s", resp.StatusCode, resp.Reason)
	}
	return nil
}

// Dial places a call to target (an AOR like "bob@voicehoc.ch" or a full SIP
// URI) and returns once the INVITE is sent; use Call.WaitEstablished, and
// Call.Cancel to abandon it while it rings.
func (p *Phone) Dial(target string) (*Call, error) {
	uri, err := parseTarget(target)
	if err != nil {
		return nil, err
	}
	c, err := p.newOutgoingCall(uri)
	if err != nil {
		return nil, err
	}
	c.invite()
	return c, nil
}

func parseTarget(target string) (*sip.URI, error) {
	if len(target) >= 4 && (target[:4] == "sip:" || target[:5] == "sips:") {
		return sip.ParseURI(target)
	}
	return sip.ParseURI("sip:" + target)
}

func (p *Phone) onRequest(tx *sip.ServerTx) {
	req := tx.Request()
	switch req.Method {
	case sip.MethodInvite:
		p.onInvite(tx)
	case sip.MethodAck:
		p.onAck(req)
	case sip.MethodBye:
		p.onBye(tx)
	case sip.MethodCancel:
		p.onCancel(tx)
	case sip.MethodOptions:
		_ = tx.RespondCode(sip.StatusOK, "")
	default:
		_ = tx.RespondCode(sip.StatusBadRequest, "Unsupported method")
	}
}

func (p *Phone) findCall(callID string) *Call {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[callID]
}

func (p *Phone) addCall(c *Call) {
	p.mu.Lock()
	p.calls[c.callID] = c
	p.mu.Unlock()
}

func (p *Phone) removeCall(callID string) {
	p.mu.Lock()
	delete(p.calls, callID)
	p.mu.Unlock()
}

func (p *Phone) onInvite(tx *sip.ServerTx) {
	req := tx.Request()
	if existing := p.findCall(req.CallID); existing != nil {
		// Retransmitted INVITE of a call we already track.
		return
	}
	c, err := p.newIncomingCall(tx)
	if err != nil {
		_ = tx.RespondCode(sip.StatusInternalError, "")
		return
	}
	p.addCall(c)
	_ = tx.RespondCode(sip.StatusRinging, "")
	c.ring()
	// Announced only once it rings: whoever takes it off Incoming sees
	// StateRinging, and an Answer from there cannot overtake the 180.
	select {
	case p.incoming <- c:
	default:
	}
	if !p.cfg.NoAutoAnswer {
		_ = c.Answer()
	}
}

func (p *Phone) onAck(req *sip.Message) {
	if c := p.findCall(req.CallID); c != nil {
		c.confirmEstablished()
	}
}

func (p *Phone) onBye(tx *sip.ServerTx) {
	c := p.findCall(tx.Request().CallID)
	if c == nil {
		_ = tx.RespondCode(sip.StatusCallDoesNotExist, "")
		return
	}
	_ = tx.RespondCode(sip.StatusOK, "")
	c.endRemote()
}

func (p *Phone) onCancel(tx *sip.ServerTx) {
	c := p.findCall(tx.Request().CallID)
	if c == nil {
		_ = tx.RespondCode(sip.StatusCallDoesNotExist, "")
		return
	}
	_ = tx.RespondCode(sip.StatusOK, "")
	c.cancelRemote()
}
