package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
)

// SIPServiceType is the SLP service type SIP bindings are advertised under.
const SIPServiceType = "sip"

// ProxyConfig tunes the SIPHoc proxy.
type ProxyConfig struct {
	// Port is the SIP port the proxy binds (default 5060).
	Port uint16
	// SIP tunes the transaction layer (default sip.SimConfig()).
	SIP sip.Config
	// SLPTimeout bounds MANET SLP lookups during call routing
	// (default 2s).
	SLPTimeout time.Duration
	// SLPCacheOnly makes the default resolver chain's SLP hop answer from
	// the local cache without ever querying the MANET. Federated islands
	// set this: intra-island peers are already in the cache from their
	// registration adverts, and a network-wide query for an inter-island
	// AOR would only burn its full timeout before the DNS fallback wins.
	SLPCacheOnly bool
	// BindingTTL is the registrar binding lifetime (default 60s).
	BindingTTL time.Duration
	// ResolveRetries is how many times an INVITE whose SLP-resolved next hop
	// never answers (retransmissions exhausted, not even a provisional) is
	// re-resolved and re-sent after evicting the stale cache entry
	// (default 2; negative disables).
	ResolveRetries int
	// ResolveBackoff is the wait before the first re-resolution; it doubles
	// per retry and is capped at 8x (default 100ms).
	ResolveBackoff time.Duration
	// Overlay plugs a P2P overlay registrar (DHT) into the proxy: the
	// default chain gains an overlay hop between SLP and DNS, and local
	// registrations are published into the overlay alongside their SLP
	// adverts. Nil disables.
	Overlay OverlayDirectory
	// Obs records resolution spans and routing counters; it is also
	// propagated to the embedded SIP stack unless SIP.Obs is already set.
	// Nil disables.
	Obs *obs.Observer
}

// slpTimeoutAttached bounds an attached node's SLP lookup: with a provider
// to fall back on, a missing MANET binding fails over quickly. The lookup
// mostly ends sooner, once the node's table agrees with every neighbour's
// (slp.Agent.LookupAsyncUntilSettled, DESIGN.md §5); this bound is for a
// neighbourhood whose digests keep differing.
const slpTimeoutAttached = 500 * time.Millisecond

// providerProxy is the deployment's DNS: an Internet SIP domain's proxy is
// host <domain>:5060, the RFC 3261 rule the paper relies on ("the SIP proxy
// can be deduced from the domain part of the SIP URI").
func providerProxy(domain string) sip.Addr {
	return sip.Addr{Node: netem.NodeID(domain), Port: sip.DefaultPort}
}

func (c ProxyConfig) withDefaults() ProxyConfig {
	if c.Port == 0 {
		c.Port = sip.DefaultPort
	}
	if c.SIP.T1 == 0 {
		c.SIP = sip.SimConfig()
	}
	if c.SLPTimeout == 0 {
		c.SLPTimeout = 2 * time.Second
	}
	if c.BindingTTL == 0 {
		c.BindingTTL = 60 * time.Second
	}
	if c.ResolveRetries == 0 {
		c.ResolveRetries = 2
	}
	if c.ResolveBackoff == 0 {
		c.ResolveBackoff = 100 * time.Millisecond
	}
	if c.SIP.Obs == nil {
		c.SIP.Obs = c.Obs
	}
	return c
}

// ProxyStats counts proxy activity.
type ProxyStats struct {
	Registers        int64
	RequestsRouted   int64
	LocalDeliveries  int64 // resolved to a locally registered UA
	SLPResolutions   int64 // resolved via MANET SLP
	OverlayRouted    int64 // resolved via the P2P overlay registrar
	InternetRouted   int64 // resolved to an Internet provider
	EndpointRouted   int64 // explicit host:port Request-URIs
	RouteFollowed    int64 // in-dialog requests following their Route set
	Unresolved       int64 // answered 404/480
	ResolverErrors   int64 // typed backend failures (e.g. overlay timeout)
	SLPEvictions     int64 // stale SLP results evicted after silent next hops
	SLPReresolutions int64 // INVITE retries sent to a freshly resolved hop
	UpstreamRegOK    int64
	UpstreamRegFail  int64
}

// proxyCounters is the live, atomically updated form of ProxyStats, so
// snapshots never race with the routing path.
type proxyCounters struct {
	registers        atomic.Int64
	requestsRouted   atomic.Int64
	localDeliveries  atomic.Int64
	slpResolutions   atomic.Int64
	overlayRouted    atomic.Int64
	internetRouted   atomic.Int64
	endpointRouted   atomic.Int64
	routeFollowed    atomic.Int64
	unresolved       atomic.Int64
	resolverErrors   atomic.Int64
	slpEvictions     atomic.Int64
	slpReresolutions atomic.Int64
	upstreamRegOK    atomic.Int64
	upstreamRegFail  atomic.Int64
}

func (c *proxyCounters) snapshot() ProxyStats {
	return ProxyStats{
		Registers:        c.registers.Load(),
		RequestsRouted:   c.requestsRouted.Load(),
		LocalDeliveries:  c.localDeliveries.Load(),
		SLPResolutions:   c.slpResolutions.Load(),
		OverlayRouted:    c.overlayRouted.Load(),
		InternetRouted:   c.internetRouted.Load(),
		EndpointRouted:   c.endpointRouted.Load(),
		RouteFollowed:    c.routeFollowed.Load(),
		Unresolved:       c.unresolved.Load(),
		ResolverErrors:   c.resolverErrors.Load(),
		SLPEvictions:     c.slpEvictions.Load(),
		SLPReresolutions: c.slpReresolutions.Load(),
		UpstreamRegOK:    c.upstreamRegOK.Load(),
		UpstreamRegFail:  c.upstreamRegFail.Load(),
	}
}

type localBinding struct {
	contact sip.Addr
	expires time.Time
}

// Proxy is the per-node SIPHoc proxy: a standards-compliant outbound proxy
// and registrar for the local VoIP application that resolves callees through
// MANET SLP and, when the node is Internet-attached, through the user's SIP
// provider.
type Proxy struct {
	host      *netem.Host
	agent     ServiceDirectory
	connp     *ConnectionProvider // may be nil (isolated MANET)
	cfg       ProxyConfig
	clk       clock.Clock
	stack     *sip.Stack
	resolvers ResolverChain
	// recordRoute is this proxy's Record-Route entry, shared by every INVITE
	// it forwards.
	recordRoute *sip.NameAddr

	mu       sync.Mutex
	bindings map[string]localBinding // AOR -> local UA contact
	upstream map[string]int          // AOR -> last upstream REGISTER status
	// invites maps the upstream INVITE branch to its downstream attempt,
	// so a hop-by-hop CANCEL can chase the INVITE (RFC 3261 §9.2).
	invites map[string]inviteForward
	// creds holds provisioned digest credentials per AOR, used when the
	// Internet provider challenges our upstream registration.
	creds   map[string]upstreamCred
	nc      uint32
	started bool
	closed  bool

	stats proxyCounters
	obs   *obs.Observer
}

// NewProxy creates the proxy. agent is the node's service directory (the
// MANET SLP agent in every deployment so far); connp may be nil when the
// deployment has no Internet path at all.
func NewProxy(host *netem.Host, agent ServiceDirectory, connp *ConnectionProvider, cfg ProxyConfig) *Proxy {
	cfg = cfg.withDefaults()
	p := &Proxy{
		host:     host,
		agent:    agent,
		connp:    connp,
		cfg:      cfg,
		clk:      host.Clock(),
		obs:      cfg.Obs,
		bindings: make(map[string]localBinding),
		upstream: make(map[string]int),
		invites:  make(map[string]inviteForward),
		creds:    make(map[string]upstreamCred),
		recordRoute: &sip.NameAddr{URI: &sip.URI{
			Scheme: "sip", Host: string(host.ID()), Port: cfg.Port, Params: ";lr",
		}},
	}
	// The paper's routing policy: the local registrar first, then MANET SLP,
	// then — when attached — the overlay and the Internet provider.
	p.resolvers = ResolverChain{
		NewRegistrarResolver(p),
		NewSLPResolver(p.agent, SLPResolverConfig{
			Timeout:         cfg.SLPTimeout,
			TimeoutAttached: slpTimeoutAttached,
			CacheOnly:       cfg.SLPCacheOnly,
			Self:            p.Addr(),
		}),
	}
	if cfg.Overlay != nil {
		p.resolvers = append(p.resolvers, NewOverlayResolver(host, cfg.Overlay, OverlayResolverConfig{Self: p.Addr()}))
	}
	p.resolvers = append(p.resolvers, NewDNSResolver(providerProxy))
	return p
}

// Start binds the SIP port and begins serving.
func (p *Proxy) Start() error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("core: proxy already started")
	}
	p.started = true
	p.mu.Unlock()
	conn, err := p.host.Listen(p.cfg.Port)
	if err != nil {
		return fmt.Errorf("core: proxy bind: %w", err)
	}
	p.stack = sip.NewStack(conn, p.cfg.SIP)
	p.stack.OnRequest(p.onRequest)
	if p.connp != nil {
		p.connp.OnChange(func(attached bool) {
			if attached {
				p.registerUpstreamAll()
			}
		})
	}
	return nil
}

// Stop shuts the proxy down.
func (p *Proxy) Stop() {
	p.mu.Lock()
	if !p.started || p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.stack.Close()
}

// after queues t on the node's shard, d from now.
func (p *Proxy) after(t *clock.Task, d time.Duration) {
	p.host.Sched().At(string(p.host.ID()), t, p.clk.Now().Add(d))
}

// Addr returns the proxy's SIP transport address.
func (p *Proxy) Addr() sip.Addr {
	return sip.Addr{Node: p.host.ID(), Port: p.cfg.Port}
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() ProxyStats {
	return p.stats.snapshot()
}

// Bindings returns the locally registered AORs.
func (p *Proxy) Bindings() []string {
	now := p.clk.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.bindings))
	for aor, b := range p.bindings {
		if now.After(b.expires) {
			continue
		}
		out = append(out, aor)
	}
	return out
}

// UpstreamStatus returns the status code of the last upstream registration
// attempt for an AOR (0 if none was attempted).
func (p *Proxy) UpstreamStatus(aor string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.upstream[aor]
}

func (p *Proxy) onRequest(tx *sip.ServerTx) {
	req := tx.Request()
	switch req.Method {
	case sip.MethodRegister:
		p.handleRegister(tx)
	case sip.MethodAck:
		p.routeStateless(tx)
	case sip.MethodCancel:
		p.handleCancel(tx)
	default:
		p.routeStateful(tx)
	}
}

// handleRegister implements the registrar half of the proxy: it accepts the
// local application's REGISTER, stores the binding, and advertises the
// proxy's own endpoint as the user's contact address via MANET SLP (paper
// Figure 3 steps 1-2 and Figure 4).
func (p *Proxy) handleRegister(tx *sip.ServerTx) {
	req := tx.Request()
	if tx.Source().Node != p.host.ID() {
		// Only the local application registers here; we are not the
		// network's registrar.
		_ = tx.RespondCode(sip.StatusNotFound, "Not a registrar for remote clients")
		return
	}
	aor := req.To.URI.AddressOfRecord()
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
	p.stats.registers.Add(1)
	p.mu.Lock()
	if ttl == 0 {
		delete(p.bindings, aor)
	} else {
		p.bindings[aor] = localBinding{contact: contact, expires: p.clk.Now().Add(ttl)}
	}
	p.mu.Unlock()

	if ttl == 0 {
		p.agent.Deregister(SIPServiceType, aor)
		if p.cfg.Overlay != nil {
			p.cfg.Overlay.Unpublish(aor)
		}
	} else {
		// Advertise our own SIP endpoint as the responsible contact
		// address for this user.
		_ = p.agent.Register(slp.Service{
			Type: SIPServiceType,
			Key:  aor,
			URL:  slp.ServiceURL(SIPServiceType, p.Addr().String()),
		})
		if p.cfg.Overlay != nil {
			// Mirror the binding into the P2P overlay registrar so peers in
			// other islands resolve this user without a provider tier. The
			// overlay re-publishes on its own cadence until Unpublish.
			p.cfg.Overlay.Publish(aor, p.Addr().String())
		}
	}
	resp := sip.NewResponse(req, sip.StatusOK, "")
	resp.Contact = req.Contact[:1:1]
	resp.Expires = int(ttl / time.Second)
	_ = tx.Respond(resp)

	// If the MANET is Internet-connected, also register the user's
	// official SIP address with their provider so calls from the Internet
	// reach the MANET (paper §3.2).
	if ttl > 0 && p.connp != nil && p.connp.Attached() {
		p.registerUpstream(aor)
	}
}

// nextHop picks the forwarding target for an already-prepared request and
// hands it to done with its kind: the topmost remaining Route entry when
// present (loose routing), an explicit endpoint (a UA contact) as it is, and
// anything else through the resolver chain (the paper's policy by default —
// local registrar, MANET SLP, Internet provider).
func (p *Proxy) nextHop(fwd *sip.Message, done func(sip.Addr, string, error)) {
	if len(fwd.Route) > 0 {
		done(sip.Addr{
			Node: netem.NodeID(fwd.Route[0].URI.Host),
			Port: fwd.Route[0].URI.PortOrDefault(),
		}, "route", nil)
		return
	}
	uri := fwd.RequestURI
	if uri.Port != 0 {
		done(sip.Addr{Node: netem.NodeID(uri.Host), Port: uri.Port}, "endpoint", nil)
		return
	}
	p.resolvers.Resolve(ResolveQuery{
		URI:      uri,
		AOR:      uri.AddressOfRecord(),
		Attached: p.connp != nil && p.connp.Attached(),
	}, done)
}

func (p *Proxy) recordResolution(kind string) {
	p.stats.requestsRouted.Add(1)
	switch kind {
	case "local":
		p.stats.localDeliveries.Add(1)
	case "slp":
		p.stats.slpResolutions.Add(1)
	case "overlay":
		p.stats.overlayRouted.Add(1)
	case "internet":
		p.stats.internetRouted.Add(1)
	case "endpoint":
		p.stats.endpointRouted.Add(1)
	case "route":
		p.stats.routeFollowed.Add(1)
	}
}

func (p *Proxy) routeStateless(tx *sip.ServerTx) {
	fwd, err := sip.PrepareForward(tx.Request(), p.stack.Addr())
	if err != nil {
		return
	}
	p.nextHop(fwd, func(dst sip.Addr, kind string, err error) {
		if err != nil {
			return
		}
		p.recordResolution(kind)
		_ = p.stack.Send(fwd, dst)
	})
}

func (p *Proxy) routeStateful(tx *sip.ServerTx) {
	req := tx.Request()
	if sip.HasLoop(req, p.stack.Addr()) {
		_ = tx.RespondCode(sip.StatusLoopDetected, "")
		return
	}
	fwd, err := sip.PrepareForward(req, p.stack.Addr())
	if err != nil {
		_ = tx.RespondCode(sip.StatusTooManyHops, "")
		return
	}
	f := &forward{p: p, tx: tx, invite: req.Method == sip.MethodInvite, fwd: fwd, pristine: *fwd}
	if f.invite {
		f.retries = p.cfg.ResolveRetries
		if v := req.TopVia(); v != nil {
			f.branch = v.Branch()
		}
	}
	f.task.Init(f.step, nil)
	f.resolve()
}

// forward is one request routed statefully: resolve the next hop, send the
// request there, relay the responses up. Every step runs on the node's shard:
// a resolution answered elsewhere comes back through the forward's task.
//
// Recovery is bounded: when an SLP-resolved next hop has gone stale (callee
// moved, node crashed), the downstream transaction exhausts its
// retransmissions in silence. An INVITE that never drew a provisional then
// evicts the stale cache entry, backs off on the task, re-resolves and tries
// the fresh route — up to ResolveRetries times — before answering 408.
type forward struct {
	p      *Proxy
	tx     *sip.ServerTx
	invite bool
	branch string // the upstream INVITE's, which a CANCEL names
	// fwd is the prepared request, which the first attempt sends; pristine
	// is a copy of it from before our Via went on, which every later
	// attempt clones.
	fwd      *sip.Message
	pristine sip.Message

	// dst, kind and err are the last resolution's.
	dst         sip.Addr
	kind        string
	err         error
	attempt     int
	retries     int
	provisional bool // an attempt drew one, so no other follows
	span        obs.SpanHandle

	// task runs the next step: the resolution that came back, or — after a
	// back-off — the next resolution.
	task            clock.Task
	resolvedPending bool
}

// resolve looks the next hop up, tracing it on the INVITE path: this is
// where SLP (and possibly a route discovery triggered by the query traffic)
// spends the call-setup time the paper's Figure 6 decomposes.
func (f *forward) resolve() {
	if f.invite {
		f.span = f.p.obs.StartSpan(f.tx.Request().CallID, obs.PhaseSLPResolve, string(f.p.host.ID()))
	}
	f.p.nextHop(&f.pristine, f.resolved)
}

func (f *forward) resolved(dst sip.Addr, kind string, err error) {
	f.dst, f.kind, f.err, f.resolvedPending = dst, kind, err, true
	f.p.after(&f.task, 0)
}

func (f *forward) step(time.Time) {
	if !f.resolvedPending {
		f.resolve() // the back-off is over
		return
	}
	f.resolvedPending = false
	p, tx := f.p, f.tx
	if f.span.Active() {
		retry := ""
		if f.attempt > 0 {
			retry = " retry"
		}
		f.span.End("kind=" + f.kind + retry)
	}
	if f.err != nil {
		p.stats.unresolved.Add(1)
		code := sip.StatusNotFound
		if !errors.Is(f.err, ErrResolverMiss) {
			// A backend failure (overlay timeout): the target may well
			// exist, we just could not reach the backend.
			p.stats.resolverErrors.Add(1)
			code = sip.StatusTemporarilyUnavail
		}
		_ = tx.RespondCode(code, "")
		f.finish()
		return
	}
	switch {
	case f.attempt > 0:
		p.stats.slpReresolutions.Add(1)
		// Refresh the caller's patience (its Proceeding deadline re-arms
		// from the latest provisional) before the next downstream attempt.
		_ = tx.RespondCode(sip.StatusTrying, "")
	case f.invite:
		_ = tx.RespondCode(sip.StatusTrying, "")
		// Record-Route: keep this proxy on the path for in-dialog
		// requests (RFC 3261 §16.6 step 4).
		f.fwd.RecordRoute = append([]*sip.NameAddr{p.recordRoute}, f.fwd.RecordRoute...)
		f.pristine.RecordRoute = f.fwd.RecordRoute
	}
	msg := f.fwd
	if f.attempt > 0 {
		msg = f.pristine.Clone()
	}
	if err := p.stack.SendRequest(msg, f.dst, f.onResponse); err != nil {
		_ = tx.RespondCode(sip.StatusInternalError, "")
		f.finish()
		return
	}
	if f.branch != "" {
		// Point the CANCEL chase at the latest downstream attempt.
		p.mu.Lock()
		p.invites[f.branch] = inviteForward{fwd: msg, dst: f.dst}
		p.mu.Unlock()
	}
	if f.attempt == 0 {
		p.recordResolution(f.kind)
	}
}

// onResponse relays a downstream response upstream, with our Via popped.
func (f *forward) onResponse(resp *sip.Message) {
	if resp.IsLocalTimeout() {
		// The downstream transaction expired without any network response:
		// a dead next hop, not a slow callee.
		f.exhausted()
		return
	}
	if len(resp.Via) < 2 || resp.StatusCode == sip.StatusTrying {
		return // nobody upstream, or hop-by-hop only
	}
	if resp.StatusCode < 200 {
		f.provisional = true
	}
	// The response is ours: popping the Via off it hands it upstream as is.
	resp.Via = resp.Via[1:]
	_ = f.tx.Respond(resp)
	if resp.StatusCode >= 200 {
		f.finish()
	}
}

// exhausted decides what follows an attempt that drew no final response. A
// provisional means the callee was reached and answered once — the route is
// live, so re-resolving cannot help; the same goes for non-SLP routes.
func (f *forward) exhausted() {
	p := f.p
	if f.provisional || f.kind != "slp" || f.attempt >= f.retries {
		_ = f.tx.RespondCode(sip.StatusRequestTimeout, "")
		f.finish()
		return
	}
	p.agent.Evict(SIPServiceType, f.pristine.RequestURI.AddressOfRecord())
	p.stats.slpEvictions.Add(1)
	delay := min(p.cfg.ResolveBackoff<<f.attempt, 8*p.cfg.ResolveBackoff)
	f.attempt++
	p.after(&f.task, delay)
}

// finish forgets the INVITE for the CANCEL chase.
func (f *forward) finish() {
	if f.branch == "" {
		return
	}
	f.p.mu.Lock()
	delete(f.p.invites, f.branch)
	f.p.mu.Unlock()
}

// handleCancel implements hop-by-hop CANCEL (RFC 3261 §9.2): answer the
// CANCEL locally with 200, then chase the matching downstream INVITE with a
// CANCEL of our own, reusing the downstream branch.
func (p *Proxy) handleCancel(tx *sip.ServerTx) {
	req := tx.Request()
	branch := ""
	if v := req.TopVia(); v != nil {
		branch = v.Branch()
	}
	p.mu.Lock()
	fw, ok := p.invites[branch]
	p.mu.Unlock()
	if !ok {
		_ = tx.RespondCode(sip.StatusCallDoesNotExist, "")
		return
	}
	_ = tx.RespondCode(sip.StatusOK, "")
	// The 487 for the INVITE travels on the INVITE transaction itself.
	_ = p.stack.SendRequestPreVia(sip.BuildCancel(fw.fwd), fw.dst, nil)
}

type inviteForward struct {
	fwd *sip.Message // the downstream INVITE as sent (our Via on top)
	dst sip.Addr
}

// registerUpstreamAll re-registers every local binding with its provider,
// invoked when the node gains Internet connectivity.
func (p *Proxy) registerUpstreamAll() {
	now := p.clk.Now()
	p.mu.Lock()
	aors := make([]string, 0, len(p.bindings))
	for aor, b := range p.bindings {
		if now.Before(b.expires) {
			aors = append(aors, aor)
		}
	}
	p.mu.Unlock()
	for _, aor := range aors {
		p.registerUpstream(aor)
	}
}

type upstreamCred struct {
	username string
	password string
}

// SetUpstreamCredentials provisions digest credentials used when the user's
// Internet provider challenges the proxy's upstream REGISTER. In the paper's
// deployment the proxy registers on the user's behalf, so the credentials
// must live here — the same way a home router's SIP ALG is provisioned.
func (p *Proxy) SetUpstreamCredentials(aor, username, password string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.creds[aor] = upstreamCred{username: username, password: password}
}

// registerUpstream registers the user's official SIP address at their
// provider, with this proxy as the contact so inbound calls traverse the
// tunnel and land here. A 401 digest challenge is answered once when
// credentials are provisioned.
func (p *Proxy) registerUpstream(aor string) {
	user, domain, ok := strings.Cut(aor, "@")
	if !ok {
		return
	}
	dst := providerProxy(domain)
	buildReq := func(seq uint32) *sip.Message {
		req := sip.NewRequest(sip.MethodRegister, &sip.URI{Scheme: "sip", Host: domain})
		req.To = &sip.NameAddr{URI: &sip.URI{Scheme: "sip", User: user, Host: domain}}
		req.From = req.To.WithTag(p.stack.NewTag())
		req.CallID = p.stack.NewCallID()
		req.CSeq = sip.CSeq{Seq: seq, Method: sip.MethodRegister}
		req.Contact = []*sip.NameAddr{{URI: &sip.URI{
			Scheme: "sip", User: user, Host: string(p.host.ID()), Port: p.cfg.Port,
		}}}
		req.Expires = int(p.cfg.BindingTTL / time.Second)
		return req
	}
	finish := func(code int) {
		p.mu.Lock()
		p.upstream[aor] = code
		p.mu.Unlock()
		if code == sip.StatusOK {
			p.stats.upstreamRegOK.Add(1)
		} else {
			p.stats.upstreamRegFail.Add(1)
		}
	}
	send := func(req *sip.Message, onFinal func(*sip.Message)) {
		err := p.stack.SendRequest(req, dst, func(resp *sip.Message) {
			if resp.StatusCode >= 200 {
				onFinal(resp)
			}
		})
		if err != nil {
			finish(sip.StatusInternalError)
		}
	}
	send(buildReq(1), func(resp *sip.Message) {
		challenge, ok := resp.Challenge()
		if resp.StatusCode != sip.StatusUnauthorized || !ok {
			finish(resp.StatusCode)
			return
		}
		p.mu.Lock()
		cred, have := p.creds[aor]
		p.nc++
		nc := p.nc
		p.mu.Unlock()
		if !have {
			finish(resp.StatusCode)
			return
		}
		retry := buildReq(2)
		retry.SetAuthorization(challenge.Answer(
			cred.username, cred.password, sip.MethodRegister,
			retry.RequestURI.String(), "cn-"+p.stack.NewTag(), nc,
		))
		send(retry, func(resp *sip.Message) { finish(resp.StatusCode) })
	})
}
