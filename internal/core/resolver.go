package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/overlay"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
)

// ServiceDirectory is the discovery surface the SIPHoc control plane needs
// from its service-location backend: register/withdraw local services, query
// the network, and manage cached results. *slp.Agent is the MANET SLP
// implementation used everywhere today; the DHT overlay registrar on the
// roadmap replaces it by implementing this interface — the proxy, the
// Connection Provider and the Gateway Provider only ever see the interface.
type ServiceDirectory interface {
	// Register advertises a local service.
	Register(svc slp.Service) error
	// Deregister withdraws a local service.
	Deregister(stype, key string)
	// Evict drops a cached remote entry (e.g. after a silent next hop).
	Evict(stype, key string)
	// InvalidateOrigin drops every cached entry learned from origin.
	InvalidateOrigin(origin netem.NodeID) int
	// LookupCached answers from the local cache only.
	LookupCached(stype, key string) (slp.Service, bool)
	// LookupAsync answers from the cache or queries the network within
	// timeout: done gets the answer, at once or later on a scheduler worker.
	LookupAsync(stype, key string, timeout time.Duration, done func(slp.Service, error))
	// LookupAsyncUntilSettled is LookupAsync that also ends, as a miss, once
	// the directory's answer cannot change by waiting: for MANET SLP, once
	// the node's table agrees with every neighbour's.
	LookupAsyncUntilSettled(stype, key string, timeout time.Duration, done func(slp.Service, error))
	// AppendServices appends the known services of a type (local and
	// cached) to dst, freshest first, and returns the extended slice.
	AppendServices(dst []slp.Service, stype string) []slp.Service
	// OnInstall has fn called, without blocking, with the type of every
	// service installed or superseded in the directory.
	OnInstall(fn func(stype string))
}

var _ ServiceDirectory = (*slp.Agent)(nil)

// ResolveQuery is one routing decision presented to a Resolver: the
// Request-URI being routed plus the context the paper's policy depends on.
// It is passed by value so a chain walk allocates nothing.
type ResolveQuery struct {
	// URI is the request's target (Port is always 0 here; explicit
	// endpoints are routed before resolvers run).
	URI *sip.URI
	// AOR is URI.AddressOfRecord(), precomputed once per request.
	AOR string
	// Attached reports whether the node currently reaches the Internet.
	Attached bool
}

// Resolver is one lookup backend in the proxy's routing policy. The built-in
// chain is the paper's policy — local registrar, then MANET SLP, then the
// Internet provider — and the interface is the extension point for
// alternative backends (the DHT overlay registrar slots in between SLP and
// DNS).
type Resolver interface {
	// Kind names the resolver in stats and traces ("local", "slp",
	// "internet", ...).
	Kind() string
	// Resolve maps the query to a next hop and calls done exactly once,
	// before returning or later on a scheduler worker: with the address,
	// with ErrResolverMiss to let the next resolver try, or with any other
	// error for a backend failure, which ends the walk. done must not block.
	Resolve(q ResolveQuery, done func(sip.Addr, error))
}

// ErrResolverMiss is what a resolver answers to mean "no answer here, try the
// next backend". Any other error stops the chain walk and propagates — a DHT
// lookup that timed out mid-churn is an outage to report, not a silent
// fall-through to a wrong answer.
var ErrResolverMiss = errors.New("core: resolver miss")

// ResolverChain tries each resolver in order; the first match wins.
type ResolverChain []Resolver

// Resolve walks the chain and calls done exactly once with the winning
// resolver's answer and kind; a backend failure ends the walk with the
// failing resolver's kind, and an exhausted chain answers ErrResolverMiss.
// done runs before Resolve returns when every resolver on the way answers at
// once — a walk that ends in a cache hit allocates nothing — and otherwise on
// the scheduler worker of the resolver that answered last.
func (c ResolverChain) Resolve(q ResolveQuery, done func(sip.Addr, string, error)) {
	w, _ := walks.Get().(*chainWalk)
	if w == nil {
		w = new(chainWalk)
		w.next = w.step
	}
	w.chain, w.i, w.q, w.done = c, -1, q, done
	w.step(sip.Addr{}, ErrResolverMiss)
}

// chainWalk is one walk of a chain. Walks are recycled, each with its step
// bound once, so that a walk costs no allocation.
type chainWalk struct {
	chain ResolverChain
	i     int
	q     ResolveQuery
	done  func(sip.Addr, string, error)
	next  func(sip.Addr, error) // step, bound
}

var walks sync.Pool

// step takes resolver i's answer and asks resolver i+1 on a miss.
func (w *chainWalk) step(addr sip.Addr, err error) {
	if errors.Is(err, ErrResolverMiss) && w.i+1 < len(w.chain) {
		w.i++
		w.chain[w.i].Resolve(w.q, w.next)
		return
	}
	kind := ""
	if !errors.Is(err, ErrResolverMiss) {
		kind = w.chain[w.i].Kind()
	}
	done := w.done
	*w = chainWalk{next: w.next}
	walks.Put(w)
	done(addr, kind, err)
}

// registrarResolver answers from the proxy's own registrar bindings (the
// locally registered UA).
type registrarResolver struct{ p *Proxy }

// NewRegistrarResolver resolves against p's local registrar bindings.
func NewRegistrarResolver(p *Proxy) Resolver { return registrarResolver{p} }

func (registrarResolver) Kind() string { return "local" }

func (r registrarResolver) Resolve(q ResolveQuery, done func(sip.Addr, error)) {
	p := r.p
	now := p.clk.Now()
	p.mu.Lock()
	b, ok := p.bindings[q.AOR]
	p.mu.Unlock()
	if ok && now.Before(b.expires) {
		done(b.contact, nil)
		return
	}
	done(sip.Addr{}, ErrResolverMiss)
}

// SLPResolverConfig tunes an SLP-backed resolver.
type SLPResolverConfig struct {
	// Timeout bounds a network query when the node is detached.
	Timeout time.Duration
	// TimeoutAttached bounds the query when an Internet fallback exists
	// (fail over fast instead of waiting out the epidemic query).
	TimeoutAttached time.Duration
	// CacheOnly answers only from the local cache and never queries the
	// network. Federated deployments use this: piggyback dissemination keeps
	// intra-island caches warm, and inter-island targets go straight to the
	// provider tier instead of paying a doomed MANET-wide query first.
	CacheOnly bool
	// Self is the owning proxy's own address; SLP answers pointing back at
	// it are ignored (we *are* that proxy).
	Self sip.Addr
}

type slpResolver struct {
	dir ServiceDirectory
	cfg SLPResolverConfig
}

// NewSLPResolver resolves AORs through a service directory (MANET SLP or
// whatever replaces it).
func NewSLPResolver(dir ServiceDirectory, cfg SLPResolverConfig) Resolver {
	return slpResolver{dir: dir, cfg: cfg}
}

func (slpResolver) Kind() string { return "slp" }

func (r slpResolver) Resolve(q ResolveQuery, done func(sip.Addr, error)) {
	if r.cfg.CacheOnly {
		svc, ok := r.dir.LookupCached(SIPServiceType, q.AOR)
		if !ok {
			done(sip.Addr{}, ErrResolverMiss)
			return
		}
		done(r.nextHop(svc))
		return
	}
	answer := func(svc slp.Service, err error) {
		if err != nil {
			done(sip.Addr{}, ErrResolverMiss)
			return
		}
		done(r.nextHop(svc))
	}
	if !q.Attached {
		r.dir.LookupAsync(SIPServiceType, q.AOR, r.cfg.Timeout, answer)
		return
	}
	// With the provider to fall back on, a miss need not wait for what the
	// neighbourhood's tables already say.
	r.dir.LookupAsyncUntilSettled(SIPServiceType, q.AOR, min(r.cfg.Timeout, r.cfg.TimeoutAttached), answer)
}

// nextHop reads the proxy address out of a SIP binding's service URL.
func (r slpResolver) nextHop(svc slp.Service) (sip.Addr, error) {
	_, addrStr, err := slp.ParseServiceURL(svc.URL)
	if err != nil {
		return sip.Addr{}, ErrResolverMiss
	}
	addr, err := sip.ParseAddr(addrStr)
	if err != nil || addr == r.cfg.Self {
		return sip.Addr{}, ErrResolverMiss
	}
	return addr, nil
}

// dnsResolver is the Internet fallback: when the node is attached and the
// target domain looks routable (contains a dot), hand the request to the
// domain's provider.
type dnsResolver struct {
	dns func(domain string) sip.Addr
}

// NewDNSResolver resolves through the deployment's DNS function (domain ->
// provider proxy address).
func NewDNSResolver(dns func(domain string) sip.Addr) Resolver {
	return dnsResolver{dns: dns}
}

func (dnsResolver) Kind() string { return "internet" }

func (r dnsResolver) Resolve(q ResolveQuery, done func(sip.Addr, error)) {
	if !q.Attached || !strings.Contains(q.URI.Host, ".") {
		done(sip.Addr{}, ErrResolverMiss)
		return
	}
	done(r.dns(q.URI.Host), nil)
}

// OverlayDirectory is the lookup/publish surface the proxy needs from a P2P
// overlay registrar. *overlay.Node implements it; a passive overlay client
// (Config.Passive) is the usual proxy-side deployment — it queries and
// publishes without serving storage itself.
type OverlayDirectory interface {
	// LookupAsync resolves an AOR to its current contact ("host:port") and
	// calls cb exactly once, ok=false when the lookup converged without one.
	// cb runs on a scheduler worker and must not block.
	LookupAsync(aor string, cb func(contact string, ok bool))
	// Publish announces (or refreshes) an AOR -> contact binding.
	Publish(aor, contact string)
	// Unpublish withdraws a binding.
	Unpublish(aor string)
}

var _ OverlayDirectory = (*overlay.Node)(nil)

// OverlayResolverConfig tunes an overlay-backed resolver.
type OverlayResolverConfig struct {
	// Timeout bounds the DHT lookup (default 2s); past it the resolver
	// answers overlay.ErrTimeout, a backend failure.
	Timeout time.Duration
	// Self is the owning proxy's own address; overlay answers pointing back
	// at it are ignored (we *are* that proxy).
	Self sip.Addr
}

type overlayResolver struct {
	host *netem.Host
	dir  OverlayDirectory
	cfg  OverlayResolverConfig
}

// NewOverlayResolver resolves AORs through a P2P overlay registrar (the DHT),
// timing its lookups out on host's scheduler. It slots between SLP and DNS in
// the default chain: the MANET answers first-hand bindings, the overlay
// answers federated peers without a central provider tier, and DNS remains
// the fallback for true Internet domains.
func NewOverlayResolver(host *netem.Host, dir OverlayDirectory, cfg OverlayResolverConfig) Resolver {
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	return overlayResolver{host: host, dir: dir, cfg: cfg}
}

func (overlayResolver) Kind() string { return "overlay" }

func (r overlayResolver) Resolve(q ResolveQuery, done func(sip.Addr, error)) {
	if !q.Attached {
		// The overlay lives on the Internet side of the gateway; a detached
		// node cannot reach it.
		done(sip.Addr{}, ErrResolverMiss)
		return
	}
	// The lookup and its deadline race; whichever comes first answers.
	var answered atomic.Bool
	answer := func(addr sip.Addr, err error) {
		if answered.CompareAndSwap(false, true) {
			done(addr, err)
		}
	}
	deadline := r.host.Sched().After(string(r.host.ID()), r.cfg.Timeout, func(time.Time) {
		answer(sip.Addr{}, overlay.ErrTimeout)
	})
	r.dir.LookupAsync(q.AOR, func(contact string, ok bool) {
		deadline.Stop()
		if addr, err := sip.ParseAddr(contact); ok && err == nil && addr != r.cfg.Self {
			answer(addr, nil)
			return
		}
		answer(sip.Addr{}, ErrResolverMiss)
	})
}
