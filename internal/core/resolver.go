package core

import (
	"errors"
	"strings"
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
	// Lookup answers from the cache or queries the network within timeout.
	Lookup(stype, key string, timeout time.Duration) (slp.Service, error)
	// LookupAsync is Lookup for callers that must not block: done gets the
	// answer, at once or later on a scheduler worker.
	LookupAsync(stype, key string, timeout time.Duration, done func(slp.Service, error))
	// Services lists known services of a type (local and cached).
	Services(stype string) []slp.Service
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

// Resolver is one lookup backend in the proxy's routing policy. Implementers
// answer with the next-hop transport address for the query, or ok=false to
// let the next resolver in the chain try. The built-in chain is the paper's
// policy — local registrar, then MANET SLP, then the Internet provider — and
// the interface is the extension point for alternative backends (the DHT
// overlay registrar of ROADMAP item 3 slots in between SLP and DNS).
type Resolver interface {
	// Kind names the resolver in stats and traces ("local", "slp",
	// "internet", ...).
	Kind() string
	// Resolve maps the query to a next hop.
	Resolve(q ResolveQuery) (sip.Addr, bool)
}

// ErrResolverMiss is the sentinel a typed resolver returns to mean "no
// answer here, try the next backend". Any other error from a TypedResolver
// stops the chain walk and propagates — a DHT lookup that timed out mid-churn
// is an outage to report, not a silent fall-through to a wrong answer.
var ErrResolverMiss = errors.New("core: resolver miss")

// TypedResolver is the optional typed-error surface of a Resolver. ResolveE
// distinguishes a clean miss (ErrResolverMiss) from a backend failure; the
// chain passes failures through to the caller unchanged.
type TypedResolver interface {
	Resolver
	ResolveE(q ResolveQuery) (sip.Addr, error)
}

// ResolverChain tries each resolver in order; the first match wins.
type ResolverChain []Resolver

// Resolve walks the chain and returns the winning resolver's answer and
// kind. The walk itself is allocation-free. Typed-resolver failures degrade
// to a miss here; callers that care use ResolveE.
func (c ResolverChain) Resolve(q ResolveQuery) (sip.Addr, string, bool) {
	addr, kind, err := c.ResolveE(q)
	return addr, kind, err == nil
}

// ResolveE walks the chain with typed errors: a resolver's ErrResolverMiss
// (or plain ok=false) moves on to the next backend, any other error aborts
// the walk and is returned with the failing resolver's kind. An exhausted
// chain returns ErrResolverMiss.
func (c ResolverChain) ResolveE(q ResolveQuery) (sip.Addr, string, error) {
	for _, r := range c {
		if tr, ok := r.(TypedResolver); ok {
			addr, err := tr.ResolveE(q)
			if err == nil {
				return addr, r.Kind(), nil
			}
			if errors.Is(err, ErrResolverMiss) {
				continue
			}
			return sip.Addr{}, r.Kind(), err
		}
		if addr, ok := r.Resolve(q); ok {
			return addr, r.Kind(), nil
		}
	}
	return sip.Addr{}, "", ErrResolverMiss
}

// registrarResolver answers from the proxy's own registrar bindings (the
// locally registered UA).
type registrarResolver struct{ p *Proxy }

// NewRegistrarResolver resolves against p's local registrar bindings.
func NewRegistrarResolver(p *Proxy) Resolver { return registrarResolver{p} }

func (registrarResolver) Kind() string { return "local" }

func (r registrarResolver) Resolve(q ResolveQuery) (sip.Addr, bool) {
	p := r.p
	now := p.clk.Now()
	p.mu.Lock()
	b, ok := p.bindings[q.AOR]
	p.mu.Unlock()
	if ok && now.Before(b.expires) {
		return b.contact, true
	}
	return sip.Addr{}, false
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

func (r slpResolver) Resolve(q ResolveQuery) (sip.Addr, bool) {
	var svc slp.Service
	if r.cfg.CacheOnly {
		var ok bool
		if svc, ok = r.dir.LookupCached(SIPServiceType, q.AOR); !ok {
			return sip.Addr{}, false
		}
	} else {
		timeout := r.cfg.Timeout
		if q.Attached && timeout > r.cfg.TimeoutAttached {
			timeout = r.cfg.TimeoutAttached
		}
		var err error
		if svc, err = r.dir.Lookup(SIPServiceType, q.AOR, timeout); err != nil {
			return sip.Addr{}, false
		}
	}
	_, addrStr, err := slp.ParseServiceURL(svc.URL)
	if err != nil {
		return sip.Addr{}, false
	}
	addr, err := sip.ParseAddr(addrStr)
	if err != nil || addr == r.cfg.Self {
		return sip.Addr{}, false
	}
	return addr, true
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

func (r dnsResolver) Resolve(q ResolveQuery) (sip.Addr, bool) {
	if !q.Attached || !strings.Contains(q.URI.Host, ".") {
		return sip.Addr{}, false
	}
	return r.dns(q.URI.Host), true
}

// OverlayDirectory is the lookup/publish surface the proxy needs from a P2P
// overlay registrar. *overlay.Node implements it; a passive overlay client
// (Config.Passive) is the usual proxy-side deployment — it queries and
// publishes without serving storage itself.
type OverlayDirectory interface {
	// Lookup resolves an AOR to its current contact ("host:port"), blocking
	// up to timeout. A converged negative answer is overlay.ErrNotFound;
	// anything else (overlay.ErrTimeout, overlay.ErrClosed) is a backend
	// failure.
	Lookup(aor string, timeout time.Duration) (string, error)
	// Publish announces (or refreshes) an AOR -> contact binding.
	Publish(aor, contact string)
	// Unpublish withdraws a binding.
	Unpublish(aor string)
}

var _ OverlayDirectory = (*overlay.Node)(nil)

// OverlayResolverConfig tunes an overlay-backed resolver.
type OverlayResolverConfig struct {
	// Timeout bounds the blocking DHT lookup (default 2s).
	Timeout time.Duration
	// Self is the owning proxy's own address; overlay answers pointing back
	// at it are ignored (we *are* that proxy).
	Self sip.Addr
}

type overlayResolver struct {
	dir OverlayDirectory
	cfg OverlayResolverConfig
}

// NewOverlayResolver resolves AORs through a P2P overlay registrar (the DHT).
// It slots between SLP and DNS in the default chain: the MANET answers
// first-hand bindings, the overlay answers federated peers without a central
// provider tier, and DNS remains the fallback for true Internet domains.
func NewOverlayResolver(dir OverlayDirectory, cfg OverlayResolverConfig) Resolver {
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	return overlayResolver{dir: dir, cfg: cfg}
}

func (overlayResolver) Kind() string { return "overlay" }

func (r overlayResolver) Resolve(q ResolveQuery) (sip.Addr, bool) {
	addr, err := r.ResolveE(q)
	return addr, err == nil
}

func (r overlayResolver) ResolveE(q ResolveQuery) (sip.Addr, error) {
	if !q.Attached {
		// The overlay lives on the Internet side of the gateway; a detached
		// node cannot reach it.
		return sip.Addr{}, ErrResolverMiss
	}
	contact, err := r.dir.Lookup(q.AOR, r.cfg.Timeout)
	if err != nil {
		if errors.Is(err, overlay.ErrNotFound) {
			return sip.Addr{}, ErrResolverMiss
		}
		return sip.Addr{}, err
	}
	addr, err := sip.ParseAddr(contact)
	if err != nil || addr == r.cfg.Self {
		return sip.Addr{}, ErrResolverMiss
	}
	return addr, nil
}
