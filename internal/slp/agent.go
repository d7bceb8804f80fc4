// Package slp implements the paper's MANET SLP layer: a Service Location
// Protocol agent that provides a regular SLP interface (register / lookup)
// but disseminates service information in a decentralized way by
// piggybacking it onto routing control messages via routing-handler plugins
// — the paper's replacement for multicast-heavy standard SLP, which is known
// to perform poorly in MANETs.
//
// Two modes are supported, forming the ablation behind experiment E9:
//
//   - ModePiggyback (the paper's design): adverts and queries ride the
//     extension slot of AODV/OLSR control messages and spread epidemically;
//     answers are returned as unicast datagrams to the querying node. No
//     dedicated discovery frames ever hit the air. Every extension leads
//     with a fixed-size digest of the sender's table and carries only the
//     registrations that changed; neighbours whose digests differ resend
//     their tables, at most once a second (DESIGN.md §5).
//   - ModeMulticast (the standard-SLP baseline): each lookup floods a
//     SrvRqst through the network as dedicated service frames, as original
//     SLP would over multicast.
package slp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/routing"
)

// Mode selects the dissemination strategy.
type Mode int

// Modes.
const (
	ModePiggyback Mode = iota + 1
	ModeMulticast
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePiggyback:
		return "piggyback"
	case ModeMulticast:
		return "multicast"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ErrNotFound is returned by Lookup when no answer arrives in time.
var ErrNotFound = errors.New("slp: service not found")

// Config tunes the agent; the zero value gets piggyback mode with defaults
// suitable for simulation.
type Config struct {
	// Mode selects piggyback (default) or multicast dissemination.
	Mode Mode
	// AdvertTTL is the service registration lifetime (default 30s).
	AdvertTTL time.Duration
	// QueryRelayTTL is how long foreign queries keep riding our outgoing
	// routing messages (default 2s).
	QueryRelayTTL time.Duration
	// Obs records lookup counters and resolution latency. Nil disables.
	Obs *obs.Observer
}

// queryHops bounds the epidemic propagation of a query.
const queryHops = 8

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModePiggyback
	}
	if c.AdvertTTL == 0 {
		c.AdvertTTL = 30 * time.Second
	}
	if c.QueryRelayTTL == 0 {
		c.QueryRelayTTL = 2 * time.Second
	}
	return c
}

// AgentStats counts agent activity.
type AgentStats struct {
	AdvertsAccepted int64 // remote adverts installed or refreshed
	QueriesAnswered int64 // unicast replies sent
	QueriesRelayed  int64 // foreign queries added to the relay set
	Lookups         int64
	CacheHits       int64
	NegativeHits    int64 // lookups answered ErrNotFound from a remembered miss
	FloodsSent      int64 // multicast-mode SrvRqst broadcasts
}

type qkey struct {
	origin netem.NodeID
	id     uint32
}

// pendingQuery is the one in-flight query all concurrent lookups of a
// (type, key) share; the last lookup to leave removes it and puts it back on
// the agent's free list.
type pendingQuery struct {
	q    Query
	refs int
}

// lookup is one caller waiting on the network for a (type, key): it ends
// exactly once, by whichever comes first of a matching advert, its deadline
// and the agent stopping. Lookups are recycled through the agent's free list,
// their tasks bound once when they are made (see end).
type lookup struct {
	a       *Agent
	ck      cacheKey
	timeout time.Duration
	start   time.Time
	pq      *pendingQuery
	done    func(Service, error)
	q       Query // multicast mode: the SrvRqst the re-flood reissues

	ended atomic.Bool
	// deadline ends the lookup with ErrNotFound; reflood (multicast mode
	// only) reissues the SrvRqst every timeout/3 until then.
	deadline, reflood clock.Task
}

// agentCounters are the hot-path stats, kept atomic so counting never takes
// a shard lock.
type agentCounters struct {
	advertsAccepted atomic.Int64
	queriesAnswered atomic.Int64
	queriesRelayed  atomic.Int64
	lookups         atomic.Int64
	cacheHits       atomic.Int64
	negativeHits    atomic.Int64
	floodsSent      atomic.Int64
}

// seenQHardCap bounds the query dedup set regardless of load; beyond it the
// oldest entries are force-evicted (re-processing an ancient duplicate is
// harmless — the relay TTL has long expired by then).
const seenQHardCap = 4096

// Agent is one node's MANET SLP process.
type Agent struct {
	host *netem.Host
	cfg  Config
	clk  clock.Clock

	conn  *netem.Conn
	cache *cache

	// mu guards the slow-path identity state: local registrations, the
	// advert sequence number, plugin wiring and lifecycle flags.
	mu      sync.Mutex
	local   map[cacheKey]Service
	seq     uint32
	plugin  string
	started bool
	closed  bool

	// qmu is the query shard: dedup set, pending lookups and the relay
	// set. Bursty query traffic riding every routing control message
	// contends here without touching registrations or lifecycle calls.
	qmu      sync.Mutex
	qid      uint32
	pendingQ map[cacheKey]*pendingQuery
	// relayQ holds the foreign queries riding this node's outgoing routing
	// messages, each for QueryRelayTTL; seenQ the foreign query keys already
	// handled, each for 4×QueryRelayTTL.
	relayQ queryTable[Query]
	seenQ  queryTable[struct{}]
	// lookups are the lookups waiting on the network, so that Stop can end
	// them; nil once the agent has stopped.
	lookups map[*lookup]struct{}
	// spareL and spareQ are the free lists of lookups and pending queries:
	// a node that polls looks up the same key round after round.
	spareL []*lookup
	spareQ []*pendingQuery
	// notFound is the error a miss of a key returns, one per key (see
	// missError); types are this agent's copies of the service types it has
	// relayed queries for (see handleQuery).
	notFound map[cacheKey]error
	types    map[string]string

	stats agentCounters

	refresh *clock.Task

	// Pre-resolved obs handles; all nil when cfg.Obs is nil.
	obsLookups   *obs.Counter
	obsCacheHits *obs.Counter
	obsMisses    *obs.Counter
	obsNegHits   *obs.Counter
	obsDelay     *obs.Histogram
}

var _ routing.PiggybackHandler = (*Agent)(nil)

// NewAgent creates the SLP agent for host. Call AttachRouting before
// starting the routing protocol, then Start.
func NewAgent(host *netem.Host, cfg Config) *Agent {
	cfg = cfg.withDefaults()
	a := &Agent{
		host:     host,
		cfg:      cfg,
		clk:      host.Clock(),
		cache:    newCache(),
		local:    make(map[cacheKey]Service),
		pendingQ: make(map[cacheKey]*pendingQuery),
		lookups:  make(map[*lookup]struct{}),
		notFound: make(map[cacheKey]error),
		types:    make(map[string]string),
	}
	a.relayQ.task.Init(a.onRelayExpiry, nil)
	a.seenQ.task.Init(a.onSeenExpiry, nil)
	if cfg.Obs.Enabled() {
		a.obsLookups = cfg.Obs.Counter("slp.lookups")
		a.obsCacheHits = cfg.Obs.Counter("slp.lookups.cachehits")
		a.obsMisses = cfg.Obs.Counter("slp.lookups.notfound")
		a.obsNegHits = cfg.Obs.Counter("slp.lookups.negcache")
		a.obsDelay = cfg.Obs.Histogram("slp.lookup.delay", nil)
	}
	return a
}

// AttachRouting loads this agent as the routing-handler plugin of p
// (piggyback mode only; harmless otherwise). Must precede p.Start.
func (a *Agent) AttachRouting(p routing.Protocol) {
	a.mu.Lock()
	a.plugin = p.Name()
	a.mu.Unlock()
	if a.cfg.Mode == ModePiggyback {
		p.SetPiggyback(a)
	}
}

// Mode returns the dissemination mode.
func (a *Agent) Mode() Mode { return a.cfg.Mode }

// Start binds the SLP port and begins processing.
func (a *Agent) Start() error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return fmt.Errorf("slp: already started")
	}
	a.started = true
	a.mu.Unlock()
	conn, err := a.host.Listen(Port)
	if err != nil {
		return fmt.Errorf("slp: bind port %d: %w", Port, err)
	}
	a.conn = conn
	if err := a.host.HandleFrames(netem.KindService, a.onServiceFrame); err != nil {
		conn.Close()
		return err
	}
	conn.Handle(a.onDatagram)
	task := a.host.Sched().Every(string(a.host.ID()), a.refreshInterval(), func(time.Time) { a.refreshTick() })
	a.mu.Lock()
	a.refresh = task
	a.mu.Unlock()
	return nil
}

// Stop terminates the agent.
func (a *Agent) Stop() {
	a.mu.Lock()
	if !a.started || a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	refresh := a.refresh
	a.mu.Unlock()
	refresh.Stop()
	a.qmu.Lock()
	waiting := a.lookups
	a.lookups = nil // from here on no expiry task is queued (see armLocked)
	a.qmu.Unlock()
	sched, key := a.host.Sched(), string(a.host.ID())
	sched.Cancel(key, &a.relayQ.task)
	sched.Cancel(key, &a.seenQ.task)
	for l := range waiting {
		if l.claim() {
			l.end(nil, &lookupError{l.ck, errStopped}, nil)
		}
	}
	a.conn.Close()
}

// Stats returns a snapshot of the agent counters.
func (a *Agent) Stats() AgentStats {
	return AgentStats{
		AdvertsAccepted: a.stats.advertsAccepted.Load(),
		QueriesAnswered: a.stats.queriesAnswered.Load(),
		QueriesRelayed:  a.stats.queriesRelayed.Load(),
		Lookups:         a.stats.lookups.Load(),
		CacheHits:       a.stats.cacheHits.Load(),
		NegativeHits:    a.stats.negativeHits.Load(),
		FloodsSent:      a.stats.floodsSent.Load(),
	}
}

// markSeenLocked records a foreign query key in the dedup set. What is due is
// dropped first, and the hard cap evicts the oldest entries so sustained query
// load can never grow seenQ without bound. Caller holds qmu.
func (a *Agent) markSeenLocked(k qkey, now time.Time) {
	nowNs := now.UnixNano()
	a.seenQ.expire(nowNs)
	for len(a.seenQ.m) >= seenQHardCap && a.seenQ.q.Len() > 0 {
		delete(a.seenQ.m, a.seenQ.q.Pop())
	}
	// Keys stay deduped well past the relay TTL so a straggler copy still
	// relaying through a distant node is not re-processed here.
	a.seenQ.put(a, k, struct{}{}, nowNs+int64(4*a.cfg.QueryRelayTTL))
}

// queryTable is one of the agent's query tables, guarded by qmu: every key
// lives one fixed span from when it is put in, so its queue is in expiry
// order. Its one task is queued at the head's deadline; each run drops what is
// due and moves on to the next deadline, and the run that empties the table
// hands back what a burst grew it to (see clock.ExpiryQueue.Trim).
type queryTable[V any] struct {
	m    map[qkey]timed[V] // nil when empty
	q    clock.ExpiryQueue[qkey]
	task clock.Task
}

// timed is a table entry and its deadline, Unix ns.
type timed[V any] struct {
	v  V
	at int64
}

// expire drops the entries whose deadline has passed. A key handled again
// after its entry expired is queued again, so a popped key goes only if its
// entry's own deadline has passed too.
func (t *queryTable[V]) expire(nowNs int64) {
	for t.q.Len() > 0 {
		k, at := t.q.Next()
		if nowNs < at {
			return
		}
		t.q.Pop()
		if e, ok := t.m[k]; ok && nowNs >= e.at {
			delete(t.m, k)
		}
	}
}

// put enters k, due at at. A key that finds the queue empty is its head, so
// the task is queued — or moved, if still queued for a key gone since — to
// its deadline; otherwise it is queued already, for an earlier one.
func (t *queryTable[V]) put(a *Agent, k qkey, v V, at int64) {
	if t.m == nil {
		t.m = make(map[qkey]timed[V])
	}
	t.m[k] = timed[V]{v, at}
	if t.q.Len() == 0 {
		a.armLocked(&t.task, at)
	}
	t.q.Push(k, at)
}

// run is the task's run.
func (t *queryTable[V]) run(a *Agent, now time.Time) {
	t.expire(now.UnixNano())
	if t.q.Len() > 0 {
		_, at := t.q.Next()
		a.armLocked(&t.task, at)
	} else if t.q.Trim() {
		t.m = nil
	}
}

// armLocked queues a table's task for at, unless the agent has stopped.
// Caller holds qmu.
func (a *Agent) armLocked(t *clock.Task, at int64) {
	if a.lookups != nil {
		a.host.Sched().At(string(a.host.ID()), t, time.Unix(0, at))
	}
}

// onSeenExpiry is the dedup set's task.
func (a *Agent) onSeenExpiry(now time.Time) {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	a.seenQ.run(a, now)
}

// onRelayExpiry is the relay set's task.
func (a *Agent) onRelayExpiry(now time.Time) {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	a.relayQ.run(a, now)
}

// Register publishes a service from this node. Type, Key and URL are
// required; Origin and Seq are stamped by the agent. While a node with a
// greater ID has the same (type, key) registered, that registration is the
// one every table keeps, this node's included (see cache).
func (a *Agent) Register(svc Service) error {
	if svc.Type == "" || svc.URL == "" {
		return fmt.Errorf("slp: registration needs Type and URL")
	}
	now := a.clk.Now()
	svc.Origin = a.host.ID()
	if adv := advertOf(&svc, now); sizeOfAdvert(&adv) > maxAdvertSize {
		return fmt.Errorf("slp: registration %s/%s exceeds %d bytes", svc.Type, svc.Key, maxAdvertSize)
	}
	a.mu.Lock()
	a.seq++
	svc.Seq = a.seq
	svc.Expires = now.Add(a.cfg.AdvertTTL)
	a.local[cacheKey{svc.Type, svc.Key}] = svc
	a.mu.Unlock()
	// The local cache answers lookups on this node immediately.
	a.cache.upsert(svc)
	return nil
}

// Deregister withdraws a local registration.
func (a *Agent) Deregister(stype, key string) {
	a.mu.Lock()
	delete(a.local, cacheKey{stype, key})
	a.mu.Unlock()
	a.cache.remove(stype, key)
}

// Evict drops one learned cache entry without touching local registrations —
// the hook consumers use when a resolved service turns out to be stale (the
// advertising node stopped answering). A fresh advert from the network
// re-installs the entry; local registrations are never evicted.
func (a *Agent) Evict(stype, key string) {
	a.mu.Lock()
	_, local := a.local[cacheKey{stype, key}]
	a.mu.Unlock()
	if local {
		return
	}
	a.cache.remove(stype, key)
}

// InvalidateOrigin drops every cache entry learned from origin, returning
// how many were evicted. This is the fault-event hook: when a node is known
// to have crashed, its adverts must not be served until natural TTL expiry.
// Local registrations (origin == self) are never touched.
func (a *Agent) InvalidateOrigin(origin netem.NodeID) int {
	if origin == a.host.ID() {
		return 0
	}
	return a.cache.removeOrigin(origin)
}

// LookupCached returns the locally known service, if any. An empty key is a
// wildcard matching any service of the type.
func (a *Agent) LookupCached(stype, key string) (Service, bool) {
	if key == "" {
		return a.cache.getAny(stype, a.clk.Now())
	}
	return a.cache.get(stype, key, a.clk.Now())
}

// Lookup resolves a service, waiting up to timeout for the network to
// answer. In piggyback mode the query rides outgoing routing messages; in
// multicast mode it floods dedicated service frames. Concurrent lookups of
// one (type, key) share one query; an exact-key query that times out is
// remembered for one refresh interval, during which lookups willing to wait
// no longer than it did fail at once (the cache is still consulted first, so
// an advert that arrives in the meantime resolves immediately). Lookup
// blocks its caller, so it must not be called from a Conn handler or a
// scheduler task: those use LookupAsync.
func (a *Agent) Lookup(stype, key string, timeout time.Duration) (Service, error) {
	if svc, ok, err := a.lookupLocal(stype, key, timeout); ok {
		return svc, err
	}
	var r struct {
		done clock.Gate
		svc  Service
		err  error
	}
	r.done.Init(a.clk)
	a.query(stype, key, timeout, func(svc Service, err error) {
		r.svc, r.err = svc, err
		r.done.Open()
	})
	clock.Wait("slp.Agent.Lookup", -1, &r.done)
	return r.svc, r.err
}

// LookupAsync is Lookup for callers that must not block: it returns at once
// and done is called exactly once with what Lookup would have returned —
// before LookupAsync returns when the cache or a remembered miss answers or
// the agent has stopped, otherwise later on a scheduler worker (so done must
// not block either), at the latest when the timeout passes or the agent stops.
func (a *Agent) LookupAsync(stype, key string, timeout time.Duration, done func(Service, error)) {
	if svc, ok, err := a.lookupLocal(stype, key, timeout); ok {
		done(svc, err)
		return
	}
	a.query(stype, key, timeout, done)
}

// errStopped ends the lookups in progress when the agent stops.
var errStopped = fmt.Errorf("agent stopped: %w", ErrNotFound)

// lookupError is what a lookup that found nothing returns. It carries its
// parts and is formatted only if somebody reads it.
type lookupError struct {
	ck    cacheKey
	cause error
}

func (e *lookupError) Error() string {
	return "lookup " + e.ck.stype + "/" + e.ck.key + ": " + e.cause.Error()
}

func (e *lookupError) Unwrap() error { return e.cause }

// missError is the error a lookup of ck that found nothing returns. A node
// with nothing to find misses the same few keys all day — an idle Connection
// Provider, every probe round — so each key's error is made once and shared:
// an error is never written to once made. Past missHardCap keys a miss makes
// its own.
func (a *Agent) missError(ck cacheKey) error {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	if err, ok := a.notFound[ck]; ok {
		return err
	}
	err := &lookupError{ck, ErrNotFound}
	if len(a.notFound) < missHardCap {
		a.notFound[ck] = err
	}
	return err
}

// lookupLocal answers a lookup from what this node already knows: the cache,
// or a remembered miss. ok is false when only the network can tell.
func (a *Agent) lookupLocal(stype, key string, timeout time.Duration) (svc Service, ok bool, err error) {
	a.stats.lookups.Add(1)
	a.obsLookups.Inc()
	lookupStart := a.clk.Now()
	if svc, ok := a.LookupCached(stype, key); ok {
		a.stats.cacheHits.Add(1)
		a.obsCacheHits.Inc()
		a.obsDelay.Observe(a.clk.Now().Sub(lookupStart))
		return svc, true, nil
	}
	if a.cache.missed(cacheKey{stype, key}, timeout, lookupStart) {
		a.stats.negativeHits.Add(1)
		a.obsNegHits.Inc()
		a.obsMisses.Inc()
		a.obsDelay.Observe(a.clk.Now().Sub(lookupStart))
		return Service{}, true, a.missError(cacheKey{stype, key})
	}
	return Service{}, false, nil
}

// query asks the network: the lookup joins (or starts) the pending query of
// its (type, key) and ends through done when a matching advert is installed,
// when the agent stops, or when the timeout passes. The deadline is a task on
// the host's shard, and so is the re-flood of multicast mode, which reissues
// the SrvRqst every timeout/3 as an SLP UA would.
func (a *Agent) query(stype, key string, timeout time.Duration, done func(Service, error)) {
	ck, now := cacheKey{stype, key}, a.clk.Now()
	a.qmu.Lock()
	if a.lookups == nil {
		a.qmu.Unlock()
		done(Service{}, &lookupError{ck, errStopped})
		return
	}
	l := a.takeLookupLocked()
	l.ended.Store(false)
	l.ck, l.timeout, l.start, l.done = ck, timeout, now, done
	a.lookups[l] = struct{}{}
	l.pq = a.pendingQ[ck]
	if l.pq == nil {
		a.qid++
		if l.pq = popSpare(&a.spareQ); l.pq == nil {
			l.pq = new(pendingQuery)
		}
		l.pq.q = Query{Type: stype, Key: key, Origin: a.host.ID(), ID: a.qid, Hops: queryHops}
		a.pendingQ[ck] = l.pq
	}
	l.pq.refs++
	l.q = l.pq.q
	first := l.pq.refs == 1
	a.qmu.Unlock()

	// From here on an advert ends the lookup; one installed since lookupLocal
	// looked ends it now, and its tasks are never queued.
	a.cache.wait(l)
	if svc, ok := a.LookupCached(stype, key); ok {
		l.answer(svc)
		return
	}
	sched, hostKey := a.host.Sched(), string(a.host.ID())
	if a.cfg.Mode == ModeMulticast {
		if first {
			a.floodQuery(l.q)
		}
		sched.At(hostKey, &l.reflood, now.Add(timeout/3))
	}
	// A network closed under the lookup drops the deadline instead of running
	// it; the caller is released all the same.
	sched.At(hostKey, &l.deadline, now.Add(timeout))
}

// takeLookupLocked returns a lookup off the free list, or a new one with its
// tasks bound. Caller holds qmu.
func (a *Agent) takeLookupLocked() *lookup {
	if l := popSpare(&a.spareL); l != nil {
		return l
	}
	l := &lookup{a: a}
	l.deadline.Init(func(time.Time) { l.onDeadline() }, l.onDeadline)
	l.reflood.Init(l.onReflood, nil)
	return l
}

// popSpare takes the last item off a free list; nil when it is empty.
func popSpare[T any](spare *[]*T) *T {
	n := len(*spare)
	if n == 0 {
		return nil
	}
	x := (*spare)[n-1]
	(*spare)[n-1] = nil
	*spare = (*spare)[:n-1]
	return x
}

// claim reports whether this call ends the lookup, which the caller then owes
// its end.
func (l *lookup) claim() bool {
	return l.ended.CompareAndSwap(false, true)
}

// end finishes the lookup the caller claimed — in the run of the task
// running, if a task's run ends it: it calls off the lookup's other tasks,
// detaches it from the cache and the agent, and hands done the answer (svc,
// or err when svc is nil).
//
// The lookup goes back on the free list only if nothing can touch it any
// more: every task of it is running or was taken off the queue before its run
// began. Otherwise — a task was running on another goroutine, or had yet to be
// queued — it is left to the collector, and whatever still holds it finds it
// ended. A cache commit or Stop holds no lookup it has not claimed (see
// cache.commit; after Stop none is reused).
func (l *lookup) end(svc *Service, err error, running *clock.Task) {
	a := l.a
	free := l.off(&l.deadline, running)
	if a.cfg.Mode == ModeMulticast {
		free = l.off(&l.reflood, running) && free
	}
	a.cache.unwait(l)
	if svc != nil {
		a.obsDelay.Observe(a.clk.Now().Sub(l.start))
	}
	done := l.done
	a.qmu.Lock()
	delete(a.lookups, l)
	if l.pq.refs--; l.pq.refs == 0 {
		delete(a.pendingQ, l.ck)
		a.spareQ = append(a.spareQ, l.pq)
	}
	if free {
		l.pq, l.done, l.q = nil, nil, Query{}
		a.spareL = append(a.spareL, l)
	}
	a.qmu.Unlock()
	if svc != nil {
		done(*svc, nil)
		return
	}
	done(Service{}, err)
}

// off reports whether t, one of the lookup's tasks, will not run again for
// this use: it is the one running, or it was called off before its run.
func (l *lookup) off(t, running *clock.Task) bool {
	return t == running || l.a.host.Sched().Cancel(string(l.a.host.ID()), t)
}

// answer ends the lookup with the advert it was waiting for, unless something
// else ended it first.
func (l *lookup) answer(svc Service) {
	if l.claim() {
		l.end(&svc, nil, nil)
	}
}

// onDeadline is the deadline task's run, and its drop when the scheduler
// closes: the lookup ends with ErrNotFound unless it already has, and an
// exact-key miss is remembered.
func (l *lookup) onDeadline() {
	if !l.claim() {
		return
	}
	a := l.a
	a.obsMisses.Inc()
	if l.ck.key != "" {
		a.cache.noteMiss(l.ck, l.timeout, a.clk.Now(), a.refreshInterval())
	}
	l.end(nil, a.missError(l.ck), &l.deadline)
}

// onReflood is the re-flood task's run (multicast mode): until the lookup
// ends, the SrvRqst goes out again under a new ID and the task re-arms.
func (l *lookup) onReflood(now time.Time) {
	if l.ended.Load() {
		return
	}
	a := l.a
	a.qmu.Lock()
	a.qid++
	l.q.ID = a.qid
	a.qmu.Unlock()
	a.floodQuery(l.q)
	a.host.Sched().At(string(a.host.ID()), &l.reflood, now.Add(l.timeout/3))
}

// AppendServices appends the live registrations of a type ("" for every
// type) known to this agent to dst, freshest first — the one that expires
// last, then by key: the order a wildcard lookup answers in — and returns the
// extended slice. A caller that asks every round keeps dst and passes it back
// emptied.
func (a *Agent) AppendServices(dst []Service, stype string) []Service {
	return a.cache.appendLive(dst, stype, a.clk.Now())
}

// Dump renders the agent state in the style of the paper's Figure 4: the
// loaded routing plugin, local registrations and the learned cache.
func (a *Agent) Dump() string {
	now := a.clk.Now()
	a.mu.Lock()
	plugin := a.plugin
	locals := a.sortedLocals()
	mode := a.cfg.Mode
	a.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "manetslp: node %s (mode %s)\n", a.host.ID(), mode)
	if plugin != "" {
		fmt.Fprintf(&b, "manetslp: loaded routing plugin: %s\n", plugin)
	} else {
		b.WriteString("manetslp: no routing plugin loaded\n")
	}
	b.WriteString("manetslp: local registrations:\n")
	for _, svc := range locals {
		fmt.Fprintf(&b, "manetslp:   %-40s %s/%s (seq %d)\n", svc.URL, svc.Type, svc.Key, svc.Seq)
	}
	b.WriteString("manetslp: cache:\n")
	for _, svc := range a.cache.snapshot("", now) {
		if svc.Origin == a.host.ID() {
			continue
		}
		fmt.Fprintf(&b, "manetslp:   %-40s %s/%s from %s (expires in %ds)\n",
			svc.URL, svc.Type, svc.Key, svc.Origin, int(svc.Expires.Sub(now).Seconds()))
	}
	return b.String()
}

// ---- routing.PiggybackHandler ----

// AppendOutgoing fills the routing message's extension slot, within budget:
// the digest of this node's table, the queries riding along, and — on a
// broadcast — the adverts the table owes its neighbours (cache.gossip). A
// message to one neighbour carries this node's own registrations instead, so
// that a route reply delivers the replying node's bindings with the route
// (the paper's Figure 5) and no broadcast debt is spent on a single listener.
// The same state always encodes to the same bytes, the Payload.AppendTo
// encoding of what was chosen. Everything is written straight into b, the
// routing frame the extension goes out in, which is the wire buffer it
// crosses the medium in (see netem.Frame): nothing is staged, and nothing is
// allocated when b has the room.
func (a *Agent) AppendOutgoing(b []byte, msg routing.Outgoing) []byte {
	budget := msg.Budget - digestSize
	if budget < 0 {
		return b
	}
	now := a.clk.Now()
	// The queries are chosen first, in (origin, ID) order, and go last.
	qs := spareQueries.Take()
	a.qmu.Lock()
	for _, pq := range a.pendingQ {
		qs = append(qs, pq.q)
	}
	a.relayQ.expire(now.UnixNano())
	for _, e := range a.relayQ.m {
		qs = append(qs, e.v)
	}
	a.qmu.Unlock()
	slices.SortFunc(qs, func(x, y Query) int {
		return cmp.Or(strings.Compare(string(x.Origin), string(y.Origin)), cmp.Compare(x.ID, y.ID))
	})
	fit := qs[:0]
	for _, q := range qs {
		if s := sizeOfQuery(&q); s <= budget {
			fit = append(fit, q)
			budget -= s
		}
	}

	// The digest comes first but is known only once gossip has run: its
	// slot is reserved here and written below.
	at := len(b)
	b = append(b, make([]byte, digestSize)...)
	var d Digest
	if msg.Dst == netem.Broadcast {
		b, d = a.cache.gossip(b, budget, now)
	} else {
		d = a.cache.digest(now)
		a.mu.Lock()
		locals := a.sortedLocals()
		a.mu.Unlock()
		for i := range locals {
			adv := advertOf(&locals[i], now)
			if s := sizeOfAdvert(&adv); s <= budget {
				b = appendAdvert(b, &adv)
				budget -= s
			}
		}
	}
	appendDigest(b[:at], &d) // into the reserved slot
	for i := range fit {
		b = appendQuery(b, &fit[i])
	}
	clear(qs) // a spare pins no strings
	spareQueries.Put(qs[:0])
	return b
}

// spareQueries holds the slices AppendOutgoing sorts the riding queries in:
// one per call in progress, whichever agent makes it.
var spareQueries routing.Spares[[]Query]

// Outgoing returns the extension on its own, in a slice of its own made to
// the budget's size, or nil when the budget has no room for it.
func (a *Agent) Outgoing(msg routing.Outgoing) []byte {
	if msg.Budget < digestSize {
		return nil
	}
	return a.AppendOutgoing(make([]byte, 0, msg.Budget), msg)
}

// sortedLocals returns the local registrations in (type, key) order. Caller
// holds a.mu.
func (a *Agent) sortedLocals() []Service {
	locals := make([]Service, 0, len(a.local))
	for _, svc := range a.local {
		locals = append(locals, svc)
	}
	slices.SortFunc(locals, func(x, y Service) int { return compareKeys(&x, &y) })
	return locals
}

// Incoming handles extensions found on received routing messages: whatever
// receive does with any payload, plus the sender's digest, which only a
// neighbour's routing message can vouch for. msg.Ext is lent (see
// netem.Frame); receive copies what it installs.
func (a *Agent) Incoming(msg routing.Incoming) {
	if d, ok := a.receive(msg.Ext); ok {
		a.cache.heardDigest(msg.From, d, a.clk.Now())
	}
}

// receive applies a payload from any source (piggyback extension, unicast
// reply, or multicast flood) straight off its bytes: adverts are installed,
// queries answered or passed on. It returns the digest the payload carried,
// if any. A malformed payload is ignored whole.
func (a *Agent) receive(b []byte) (d Digest, ok bool) {
	if checkPayload(b) != nil {
		return d, false
	}
	now := a.clk.Now()
	self := a.host.ID()
	var it item
	for dec := newDecoder(b); dec.next(&it); {
		switch {
		case it.kind == itemDigest:
			d, ok = it.digest, true
		case string(it.origin) == string(self):
			// Our own advert or query, come back round.
		case it.kind == itemQuery:
			a.handleQuery(&it, now)
		case it.ttl > 0 && it.size <= maxAdvertSize && a.cache.upsertAdvert(&it, now):
			a.stats.advertsAccepted.Add(1)
		}
	}
	return d, ok
}

// handleQuery answers a foreign query from the table if it can, and otherwise
// passes it on with one hop less: in piggyback mode on this node's outgoing
// routing messages for QueryRelayTTL, in multicast mode as a flood frame of
// its own. Each query is handled once, however many copies arrive.
//
// The query outlives the frame it came in (seenQ, relayQ), so its strings must
// not alias the frame; what a relay keeps of a wildcard query from a node of
// its network are strings it already holds, so relaying one allocates nothing:
// the network's own copy of the origin's ID and the agent's copy of the type.
// A key counts as seen only until its deadline, dropped yet or not: a restarted
// node numbers its queries from 1 again, and after a quiet spell they are new.
func (a *Agent) handleQuery(it *item, now time.Time) {
	origin := a.host.Network().OwnedID(netem.NodeID(it.origin))
	k := qkey{origin, it.seq}
	a.qmu.Lock()
	if e, seen := a.seenQ.m[k]; seen && now.UnixNano() < e.at {
		a.qmu.Unlock()
		return
	}
	q := Query{Type: a.serviceTypeLocked(it.stype), Key: string(it.key), Origin: origin, ID: it.seq, Hops: it.hops}
	a.markSeenLocked(k, now)
	a.qmu.Unlock()

	if svc, ok := a.queryMatch(q, now); ok {
		// Answer with a unicast reply to the querying node's SLP port.
		reply := &Payload{Adverts: []Advert{advertOf(&svc, now)}}
		a.stats.queriesAnswered.Add(1)
		_ = a.conn.WriteTo(reply.Marshal(), q.Origin, Port)
		return
	}
	if q.Hops <= 1 {
		return
	}
	q.Hops--
	if a.cfg.Mode == ModeMulticast {
		a.sendFlood(q)
		return
	}
	a.stats.queriesRelayed.Add(1)
	a.qmu.Lock()
	a.relayQ.put(a, k, q, now.Add(a.cfg.QueryRelayTTL).UnixNano())
	a.qmu.Unlock()
}

// serviceTypeLocked returns the agent's copy of the service type spelled by
// b, made the first time it is seen: queries keep coming for the same few
// types. Past maxServiceTypes a new type gets a copy of its own each time.
// Caller holds qmu.
func (a *Agent) serviceTypeLocked(b []byte) string {
	if s, ok := a.types[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(a.types) < maxServiceTypes {
		a.types[s] = s
	}
	return s
}

// maxServiceTypes bounds the service types an agent keeps a copy of.
const maxServiceTypes = 64

// queryMatch resolves a query against the cache; an empty key matches any
// service of the type.
func (a *Agent) queryMatch(q Query, now time.Time) (Service, bool) {
	if q.Key == "" {
		return a.cache.getAny(q.Type, now)
	}
	return a.cache.get(q.Type, q.Key, now)
}

// ---- multicast baseline ----

// floodQuery broadcasts this node's own SrvRqst as a dedicated service frame.
func (a *Agent) floodQuery(q Query) {
	a.stats.floodsSent.Add(1)
	a.sendFlood(q)
}

func (a *Agent) sendFlood(q Query) {
	p := &Payload{Queries: []Query{q}}
	_ = a.host.SendFrame(netem.Broadcast, netem.KindService, p.Marshal())
}

// onServiceFrame handles multicast-mode floods.
func (a *Agent) onServiceFrame(f netem.Frame) { a.receive(f.Payload) }

// onDatagram handles unicast SLP datagrams (query replies). One that arrives
// while Stop is running is dropped.
func (a *Agent) onDatagram(dg *netem.Datagram) {
	a.mu.Lock()
	closed := a.closed
	a.mu.Unlock()
	if !closed {
		a.receive(dg.Data)
	}
}

func (a *Agent) refreshInterval() time.Duration {
	interval := a.cfg.AdvertTTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	return interval
}

// refreshTick bumps local registration sequence numbers so remote caches
// keep them alive, in key order so that a replay stamps the same numbers.
func (a *Agent) refreshTick() {
	now := a.clk.Now()
	a.mu.Lock()
	for _, svc := range a.sortedLocals() {
		a.seq++
		svc.Seq = a.seq
		svc.Expires = now.Add(a.cfg.AdvertTTL)
		a.local[cacheKey{svc.Type, svc.Key}] = svc
		a.cache.upsert(svc)
	}
	a.mu.Unlock()
}
