package internet

import (
	"fmt"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/sip"
)

// ProviderConfig describes one Internet SIP provider.
type ProviderConfig struct {
	// Domain is the SIP domain the provider assigns addresses from, e.g.
	// "voicehoc.ch".
	Domain string
	// ProxyHost is the node the provider's registrar/proxy actually runs
	// on. When it differs from Domain, subscribers must configure it as
	// their outbound proxy — the polyphone.ethz.ch situation that breaks
	// SIPHoc's localhost-outbound-proxy trick (paper §3.2).
	ProxyHost string
	// RequireAuth makes the registrar challenge REGISTERs with RFC 2617
	// digest authentication; accounts then need passwords
	// (AddAccountWithPassword).
	RequireAuth bool
	// SIP tunes the transaction layer (default sip.SimConfig()).
	SIP sip.Config
	// BindingTTL is how long registrations stay valid (default 60s).
	BindingTTL time.Duration
	// Shard, when set, makes this provider one member of a sharded tier: it
	// only stores bindings for the AORs the shard map assigns to its index
	// and statelessly relays everything else to the owner shard. Normally
	// wired by NewProviderPool.
	Shard *ShardRole
}

// Provider is a centralized Internet SIP service: registrar plus stateful
// proxy for its domain, the component SIP assumes and MANETs lack.
type Provider struct {
	cfg   ProviderConfig
	clk   clock.Clock
	host  *netem.Host
	stack *sip.Stack

	mu       sync.Mutex
	accounts map[string]accountInfo // AOR -> account
	bindings map[string]binding     // AOR -> current contact
	nonces   *sip.NonceSource
	stats    ProviderStats
	closed   bool
}

type accountInfo struct {
	exists   bool
	password string
}

type binding struct {
	contact sip.Addr
	expires time.Time
}

// ProviderStats counts registrar/proxy activity.
type ProviderStats struct {
	Registers     int64
	Invites       int64
	Forwarded     int64
	Rejected      int64
	Challenged    int64 // 401 digest challenges issued
	ShardForwards int64 // requests relayed to the owning shard
}

// NewProvider starts a provider on the Internet. Its proxy host (and, if
// different, the domain placeholder node) are created on the fly.
func NewProvider(inet *Internet, cfg ProviderConfig) (*Provider, error) {
	if cfg.Domain == "" {
		return nil, fmt.Errorf("internet: provider needs a domain")
	}
	if cfg.ProxyHost == "" {
		cfg.ProxyHost = cfg.Domain
	}
	if cfg.BindingTTL == 0 {
		cfg.BindingTTL = 60 * time.Second
	}
	if cfg.SIP.T1 == 0 {
		cfg.SIP = sip.SimConfig()
	}
	host, err := inet.AddHost(netem.NodeID(cfg.ProxyHost))
	if err != nil {
		return nil, err
	}
	if cfg.ProxyHost != cfg.Domain && cfg.Shard == nil {
		// The domain node exists but runs no SIP service: REGISTERs sent
		// there (by clients that ignore the outbound-proxy requirement)
		// time out, exactly like a host with no SIP listener. Pool shards
		// skip this: the pool owns the domain host (shard 0 runs on it).
		if _, err := inet.AddHost(netem.NodeID(cfg.Domain)); err != nil {
			return nil, err
		}
	}
	conn, err := host.Listen(sip.DefaultPort)
	if err != nil {
		return nil, err
	}
	p := &Provider{
		cfg:      cfg,
		clk:      host.Clock(),
		host:     host,
		stack:    sip.NewStack(conn, cfg.SIP),
		accounts: make(map[string]accountInfo),
		bindings: make(map[string]binding),
		nonces:   sip.NewNonceSource(cfg.Domain),
	}
	p.stack.OnRequest(p.onRequest)
	return p, nil
}

// Domain returns the provider's SIP domain.
func (p *Provider) Domain() string { return p.cfg.Domain }

// ProxyAddr returns the transport address of the provider's proxy.
func (p *Provider) ProxyAddr() sip.Addr {
	return sip.Addr{Node: netem.NodeID(p.cfg.ProxyHost), Port: sip.DefaultPort}
}

// RequiresOutboundProxy reports whether subscribers must configure a special
// outbound proxy (proxy host differs from the domain).
func (p *Provider) RequiresOutboundProxy() bool { return p.cfg.ProxyHost != p.cfg.Domain }

// AddAccount provisions a subscriber, e.g. "alice" (no password; only valid
// when the provider does not require authentication).
func (p *Provider) AddAccount(user string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.accounts[user+"@"+p.cfg.Domain] = accountInfo{exists: true}
}

// AddAccountWithPassword provisions a subscriber with digest credentials.
func (p *Provider) AddAccountWithPassword(user, password string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.accounts[user+"@"+p.cfg.Domain] = accountInfo{exists: true, password: password}
}

// Binding returns the current registered contact for an AOR.
func (p *Provider) Binding(aor string) (sip.Addr, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.bindings[aor]
	if !ok || p.clk.Now().After(b.expires) {
		return sip.Addr{}, false
	}
	return b.contact, true
}

// Stats returns a snapshot of the provider counters.
func (p *Provider) Stats() ProviderStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close shuts the provider down.
func (p *Provider) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.stack.Close()
}

func (p *Provider) onRequest(tx *sip.ServerTx) {
	req := tx.Request()
	switch req.Method {
	case sip.MethodRegister:
		p.handleRegister(tx)
	case sip.MethodAck:
		p.forward(tx, true)
	default:
		p.forward(tx, false)
	}
}

func (p *Provider) handleRegister(tx *sip.ServerTx) {
	req := tx.Request()
	aor := req.To.URI.AddressOfRecord()
	// In a sharded tier only the owner shard stores the binding; any other
	// shard relays the REGISTER there, so clients can register through any
	// front door without knowing the shard map.
	if sh := p.cfg.Shard; sh != nil {
		if owner := sh.Map.OwnerIndex(aor); owner >= 0 && owner != sh.Index {
			p.countShardForward()
			p.relay(tx, sh.Map.Addr(owner), false)
			return
		}
	}
	p.mu.Lock()
	acct := p.accounts[aor]
	p.stats.Registers++
	p.mu.Unlock()
	if !acct.exists {
		p.mu.Lock()
		p.stats.Rejected++
		p.mu.Unlock()
		_ = tx.RespondCode(sip.StatusNotFound, "Unknown account")
		return
	}
	if p.cfg.RequireAuth && !p.authorized(req, acct) {
		p.mu.Lock()
		nonce := p.nonces.Next()
		p.stats.Challenged++
		p.mu.Unlock()
		resp := sip.NewResponse(req, sip.StatusUnauthorized, "")
		resp.SetChallenge(&sip.DigestChallenge{Realm: p.cfg.Domain, Nonce: nonce})
		_ = tx.Respond(resp)
		return
	}
	if len(req.Contact) == 0 {
		_ = tx.RespondCode(sip.StatusBadRequest, "Missing Contact")
		return
	}
	contactURI := req.Contact[0].URI
	contact := sip.Addr{Node: netem.NodeID(contactURI.Host), Port: contactURI.PortOrDefault()}
	ttl := p.cfg.BindingTTL
	if req.Expires >= 0 {
		ttl = time.Duration(req.Expires) * time.Second
	}
	p.mu.Lock()
	if ttl == 0 {
		delete(p.bindings, aor)
	} else {
		p.bindings[aor] = binding{contact: contact, expires: p.clk.Now().Add(ttl)}
	}
	p.mu.Unlock()
	resp := sip.NewResponse(req, sip.StatusOK, "")
	resp.Contact = req.Contact[:1:1]
	resp.Expires = int(ttl / time.Second)
	_ = tx.Respond(resp)
}

// authorized verifies digest credentials on a request against the account.
func (p *Provider) authorized(req *sip.Message, acct accountInfo) bool {
	creds, ok := req.Authorization()
	if !ok || creds.Realm != p.cfg.Domain {
		return false
	}
	p.mu.Lock()
	nonceOK := p.nonces.Use(creds.Nonce)
	p.mu.Unlock()
	if !nonceOK {
		return false
	}
	return creds.Verify(acct.password, req.Method)
}

// forward proxies a request toward its destination: a registered binding
// for our domain, or the endpoint named by the Request-URI.
func (p *Provider) forward(tx *sip.ServerTx, stateless bool) {
	req := tx.Request()
	if req.Method == sip.MethodInvite {
		p.mu.Lock()
		p.stats.Invites++
		p.mu.Unlock()
	}
	var dst sip.Addr
	uri := req.RequestURI
	if uri.Port != 0 {
		// Explicit endpoint address (in-dialog requests to contacts).
		dst = sip.Addr{Node: netem.NodeID(uri.Host), Port: uri.Port}
	} else if uri.Host == p.cfg.Domain {
		aor := uri.AddressOfRecord()
		// Sharded tier: the binding lives on the owner shard; relay there
		// statelessly (no binding replication between shards).
		if sh := p.cfg.Shard; sh != nil {
			if owner := sh.Map.OwnerIndex(aor); owner >= 0 && owner != sh.Index {
				p.countShardForward()
				p.relay(tx, sh.Map.Addr(owner), stateless)
				return
			}
		}
		b, ok := p.Binding(aor)
		if !ok {
			if !stateless {
				p.mu.Lock()
				p.stats.Rejected++
				p.mu.Unlock()
				_ = tx.RespondCode(sip.StatusTemporarilyUnavail, "No registered binding")
			}
			return
		}
		dst = b
	} else {
		// Another domain: forward to its proxy (DNS = host name).
		dst = sip.Addr{Node: netem.NodeID(uri.Host), Port: sip.DefaultPort}
	}
	p.relay(tx, dst, stateless)
}

func (p *Provider) countShardForward() {
	p.mu.Lock()
	p.stats.ShardForwards++
	p.mu.Unlock()
}

// relay forwards the transaction's request to dst and, for stateful relays,
// passes the downstream responses back up with our Via popped — a
// retransmitted 2xx included, so that the caller's ACK is sent again.
func (p *Provider) relay(tx *sip.ServerTx, dst sip.Addr, stateless bool) {
	req := tx.Request()
	fwd, err := sip.PrepareForward(req, p.stack.Addr())
	if err != nil {
		if !stateless {
			_ = tx.RespondCode(sip.StatusTooManyHops, "")
		}
		return
	}
	if stateless {
		_ = p.stack.Send(fwd, dst)
		return
	}
	err = p.stack.SendRequest(fwd, dst, func(resp *sip.Message) {
		if len(resp.Via) < 2 {
			return // nobody upstream
		}
		resp.Via = resp.Via[1:] // pop our Via
		_ = tx.Respond(resp)
	})
	if err != nil {
		_ = tx.RespondCode(sip.StatusInternalError, "")
		return
	}
	p.mu.Lock()
	p.stats.Forwarded++
	p.mu.Unlock()
}
