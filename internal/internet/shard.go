package internet

import (
	"fmt"
	"sync"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/sip"
)

// ShardMap is the consistent routing table of a sharded provider tier: it
// maps an AOR to the shard that owns its registrar state. Ownership is
// decided by highest-random-weight (rendezvous) hashing over the FNV-1a hash
// of the AOR (sip.HashAOR) and each live shard's host name, so a shard
// crashing or restarting only moves the AORs it owned — the other shards'
// bindings stay put, which is what makes crash rebalance cheap.
//
// The map is shared by every shard of one pool; SetLive flips membership and
// is safe against concurrent Owner lookups.
type ShardMap struct {
	domain string
	hosts  []string
	hash   []uint32 // precomputed FNV-1a of each host name

	mu   sync.RWMutex
	live []bool
}

// NewShardMap builds the map for a domain over the given shard proxy hosts,
// all initially live.
func NewShardMap(domain string, hosts []string) *ShardMap {
	m := &ShardMap{
		domain: domain,
		hosts:  append([]string(nil), hosts...),
		hash:   make([]uint32, len(hosts)),
		live:   make([]bool, len(hosts)),
	}
	for i, h := range m.hosts {
		m.hash[i] = sip.HashAOR(h)
		m.live[i] = true
	}
	return m
}

// Domain returns the SIP domain the shards serve.
func (m *ShardMap) Domain() string { return m.domain }

// Len returns the shard count (live or not).
func (m *ShardMap) Len() int { return len(m.hosts) }

// Host returns shard i's proxy host name.
func (m *ShardMap) Host(i int) string { return m.hosts[i] }

// Addr returns shard i's SIP transport address.
func (m *ShardMap) Addr(i int) sip.Addr {
	return sip.Addr{Node: netem.NodeID(m.hosts[i]), Port: sip.DefaultPort}
}

// SetLive marks shard i up or down, changing ownership for the AORs it owns.
func (m *ShardMap) SetLive(i int, up bool) {
	m.mu.Lock()
	m.live[i] = up
	m.mu.Unlock()
}

// mix finalizes a combined hash so rendezvous scores of nearby inputs spread
// (xorshift-multiply avalanche).
func mix(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}

// OwnerIndex returns the live shard owning aor, or -1 when no shard is live.
// Allocation-free: callers sit on the REGISTER/INVITE forwarding path.
func (m *ShardMap) OwnerIndex(aor string) int {
	h := sip.HashAOR(aor)
	m.mu.RLock()
	defer m.mu.RUnlock()
	best, bestScore := -1, uint32(0)
	for i, up := range m.live {
		if !up {
			continue
		}
		score := mix(h ^ m.hash[i])
		if best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// FrontDoor returns the lowest-index live shard's address — the stable entry
// point DNS for the domain should resolve to. Any shard accepts any request
// and forwards it to the owner, so the front door needs no AOR awareness.
func (m *ShardMap) FrontDoor() (sip.Addr, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i, up := range m.live {
		if up {
			return sip.Addr{Node: netem.NodeID(m.hosts[i]), Port: sip.DefaultPort}, true
		}
	}
	return sip.Addr{}, false
}

// ShardRole places a provider inside a sharded tier: the shared map plus the
// provider's own index in it.
type ShardRole struct {
	Map   *ShardMap
	Index int
}

// PoolConfig describes a sharded provider tier for one domain.
type PoolConfig struct {
	// Domain is the SIP domain the pool serves.
	Domain string
	// Shards is the number of registrar shards (default 1). Shard 0 runs on
	// the bare domain host (the DNS front door); extra shards run on
	// "s<i>.<domain>".
	Shards int
	// BindingTTL is how long registrations stay valid (default 60s).
	BindingTTL time.Duration
}

// ProviderPool is the sharded provider tier: N registrar/proxy shards for one
// domain with consistent AOR routing between them. Accounts are provisioned
// on every shard (accounts are configuration), bindings live only on their
// owner shard (bindings are state) — so a shard crash loses exactly its own
// bindings and the next upstream re-REGISTER re-homes them.
type ProviderPool struct {
	inet *Internet
	cfg  PoolConfig
	smap *ShardMap

	mu        sync.Mutex
	providers []*Provider       // index-aligned with the map; nil = crashed
	accounts  map[string]string // user -> password ("" = no password)
	closed    bool
}

// PoolStats aggregates provider counters across the tier.
type PoolStats struct {
	PerShard []ProviderStats
	Total    ProviderStats
}

// NewProviderPool brings up every shard on the Internet.
func NewProviderPool(inet *Internet, cfg PoolConfig) (*ProviderPool, error) {
	if cfg.Domain == "" {
		return nil, fmt.Errorf("internet: provider pool needs a domain")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	hosts := make([]string, cfg.Shards)
	hosts[0] = cfg.Domain
	for i := 1; i < cfg.Shards; i++ {
		hosts[i] = fmt.Sprintf("s%d.%s", i, cfg.Domain)
	}
	p := &ProviderPool{
		inet:      inet,
		cfg:       cfg,
		smap:      NewShardMap(cfg.Domain, hosts),
		providers: make([]*Provider, cfg.Shards),
		accounts:  make(map[string]string),
	}
	for i := range hosts {
		prov, err := p.startShard(i)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.providers[i] = prov
	}
	return p, nil
}

func (p *ProviderPool) startShard(i int) (*Provider, error) {
	return NewProvider(p.inet, ProviderConfig{
		Domain:     p.cfg.Domain,
		ProxyHost:  p.smap.Host(i),
		BindingTTL: p.cfg.BindingTTL,
		Shard:      &ShardRole{Map: p.smap, Index: i},
	})
}

// Domain returns the pool's SIP domain.
func (p *ProviderPool) Domain() string { return p.cfg.Domain }

// Map exposes the pool's shard map.
func (p *ProviderPool) Map() *ShardMap { return p.smap }

// Shards returns the shard count.
func (p *ProviderPool) Shards() int { return len(p.providers) }

// Shard returns shard i's provider (nil while crashed).
func (p *ProviderPool) Shard(i int) *Provider {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.providers[i]
}

// ProxyAddr returns the current front-door address: the lowest-index live
// shard. Wire it as the deployment's DNS answer for the domain so clients
// survive front-door crashes; any shard forwards to the binding's owner.
func (p *ProviderPool) ProxyAddr() sip.Addr {
	addr, _ := p.smap.FrontDoor()
	return addr
}

// AddAccount provisions a subscriber on every shard.
func (p *ProviderPool) AddAccount(user string) { p.AddAccountWithPassword(user, "") }

// AddAccountWithPassword provisions a subscriber with digest credentials on
// every shard, so ownership can move freely between shards.
func (p *ProviderPool) AddAccountWithPassword(user, password string) {
	p.mu.Lock()
	p.accounts[user] = password
	provs := append([]*Provider(nil), p.providers...)
	p.mu.Unlock()
	for _, prov := range provs {
		if prov == nil {
			continue
		}
		if password == "" {
			prov.AddAccount(user)
		} else {
			prov.AddAccountWithPassword(user, password)
		}
	}
}

// Owner returns the provider shard currently owning aor (nil when the whole
// tier is down).
func (p *ProviderPool) Owner(aor string) *Provider {
	i := p.smap.OwnerIndex(aor)
	if i < 0 {
		return nil
	}
	return p.Shard(i)
}

// Binding returns the registered contact for an AOR from its owner shard.
func (p *ProviderPool) Binding(aor string) (sip.Addr, bool) {
	prov := p.Owner(aor)
	if prov == nil {
		return sip.Addr{}, false
	}
	return prov.Binding(aor)
}

// CrashShard kills shard i: its provider stops, its host leaves the
// Internet, and ownership of its AORs moves to the surviving shards.
func (p *ProviderPool) CrashShard(i int) {
	p.mu.Lock()
	prov := p.providers[i]
	p.providers[i] = nil
	p.mu.Unlock()
	if prov == nil {
		return
	}
	p.smap.SetLive(i, false)
	prov.Close()
	p.inet.RemoveHost(netem.NodeID(p.smap.Host(i)))
}

// RestartShard brings a crashed shard back empty: accounts are re-provisioned
// from the pool, bindings rebuild as clients re-register.
func (p *ProviderPool) RestartShard(i int) error {
	p.mu.Lock()
	if p.providers[i] != nil {
		p.mu.Unlock()
		return fmt.Errorf("internet: shard %d already running", i)
	}
	p.mu.Unlock()
	prov, err := p.startShard(i)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.providers[i] = prov
	accounts := make(map[string]string, len(p.accounts))
	for u, pw := range p.accounts {
		accounts[u] = pw
	}
	p.mu.Unlock()
	for u, pw := range accounts {
		if pw == "" {
			prov.AddAccount(u)
		} else {
			prov.AddAccountWithPassword(u, pw)
		}
	}
	p.smap.SetLive(i, true)
	return nil
}

// Stats snapshots every live shard's counters plus the tier total. Crashed
// shards report zero.
func (p *ProviderPool) Stats() PoolStats {
	p.mu.Lock()
	provs := append([]*Provider(nil), p.providers...)
	p.mu.Unlock()
	s := PoolStats{PerShard: make([]ProviderStats, len(provs))}
	for i, prov := range provs {
		if prov == nil {
			continue
		}
		ps := prov.Stats()
		s.PerShard[i] = ps
		s.Total.Registers += ps.Registers
		s.Total.Invites += ps.Invites
		s.Total.Forwarded += ps.Forwarded
		s.Total.Rejected += ps.Rejected
		s.Total.Challenged += ps.Challenged
		s.Total.ShardForwards += ps.ShardForwards
	}
	return s
}

// Close shuts every shard down.
func (p *ProviderPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	provs := append([]*Provider(nil), p.providers...)
	for i := range p.providers {
		p.providers[i] = nil
	}
	p.mu.Unlock()
	for _, prov := range provs {
		if prov != nil {
			prov.Close()
		}
	}
}
