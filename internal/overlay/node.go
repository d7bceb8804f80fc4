package overlay

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/sip"
)

// DefaultPort is the overlay's well-known UDP port.
const DefaultPort = 7000

// bucketCap is the k-bucket capacity. Buckets hold more peers than the
// replication factor so lookups survive losing a whole replica set.
const bucketCap = 8

// Typed lookup errors — the resolver chain distinguishes "the overlay
// answered: nobody has this AOR" (fall through to the next backend) from
// "the overlay could not answer" (passed through to the caller).
var (
	// ErrNotFound means the lookup converged without finding a binding.
	ErrNotFound = errors.New("overlay: AOR not found")
	// ErrTimeout means the lookup did not converge within the deadline.
	ErrTimeout = errors.New("overlay: lookup timed out")
	// ErrClosed means the node is shut down.
	ErrClosed = errors.New("overlay: node closed")
)

// Config tunes an overlay node.
type Config struct {
	// Host is the node's transport. Full nodes live on Internet hosts;
	// passive clients run on MANET hosts and reach the overlay through
	// their gateway tunnel like any other Internet traffic.
	Host *netem.Host
	// Port is the overlay port (default DefaultPort).
	Port uint16
	// K is the replication factor: bindings are stored on the K closest
	// nodes and lookups terminate once the K closest answered (default 3).
	K int
	// Alpha is the lookup parallelism (default 3).
	Alpha int
	// TTL is the binding lifetime on storing nodes (default 2m).
	TTL time.Duration
	// Republish is the re-publication interval; it must undercut TTL so
	// bindings survive churn (default TTL/3).
	Republish time.Duration
	// RPCTimeout bounds one overlay RPC; a peer that misses it is evicted
	// from its bucket (default 250ms).
	RPCTimeout time.Duration
	// Bootstrap seeds the routing table with known overlay hosts.
	Bootstrap []netem.NodeID
	// Passive marks a client-only node: it publishes and looks up but
	// stores nothing, serves nothing and stays out of other nodes'
	// k-buckets (its messages carry From=0). MANET proxies run these.
	Passive bool
	// Obs records overlay counters; nil disables.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Port == 0 {
		c.Port = DefaultPort
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.Alpha == 0 {
		c.Alpha = 3
	}
	if c.TTL == 0 {
		c.TTL = 2 * time.Minute
	}
	if c.Republish == 0 {
		c.Republish = c.TTL / 3
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 250 * time.Millisecond
	}
	return c
}

// Stats counts overlay node activity.
type Stats struct {
	Sent          int64 // messages sent (requests + responses)
	Received      int64 // messages received and parsed
	Lookups       int64 // iterative lookups started
	LookupHits    int64 // lookups that found a binding
	LookupMisses  int64 // lookups that converged empty
	StoresServed  int64 // STORE requests accepted
	Republishes   int64 // owner re-publications executed
	RepairStores  int64 // storer-side replica-repair STOREs sent
	Timeouts      int64 // RPCs that expired
	Evictions     int64 // peers evicted after an RPC timeout
	StoredRecords int64 // live records held right now (gauge)
}

type counters struct {
	sent         atomic.Int64
	received     atomic.Int64
	lookups      atomic.Int64
	lookupHits   atomic.Int64
	lookupMisses atomic.Int64
	storesServed atomic.Int64
	republishes  atomic.Int64
	repairStores atomic.Int64
	timeouts     atomic.Int64
	evictions    atomic.Int64
}

// peer is one k-bucket entry.
type peer struct {
	id    uint32
	addr  netem.NodeID
	addrB []byte // cached bytes of addr for zero-alloc reply building
}

// record is one stored AOR binding replica.
type record struct {
	value   string
	seq     uint32
	expires time.Time
}

// pub is a binding this node owns and re-publishes.
type pub struct {
	value string
	seq   uint32
}

type pendingRPC struct {
	kind    uint8 // expected response kind
	to      peer
	timer   *clock.Task
	onReply func(*Message)
	onDone  func() // timeout path
}

// Node is one overlay participant: a Kademlia-style routing table over the
// 32-bit sip.HashAOR key space, a replica store, and the iterative
// FIND_VALUE machinery — all timer work on the shared clock.Scheduler and
// all receive work inline on the host's delivery shard. Zero goroutines per
// node.
type Node struct {
	cfg   Config
	id    uint32
	host  *netem.Host
	conn  *netem.Conn
	clk   clock.Clock
	sched *clock.Scheduler
	// skey scopes every scheduler task of this node to one shard, so its
	// timers serialize with each other like a per-node loop would.
	skey string

	mu        sync.Mutex
	buckets   [32][]peer
	records   map[string]record
	published map[string]pub
	pending   map[uint32]*pendingRPC
	nextRPC   uint32
	nextSeq   uint32
	started   bool
	closed    bool
	// fired collects completion callbacks to run after mu is released.
	fired []func()

	// scratch buffers reused across sends (guarded by mu) and receives
	// (serialized by the conn handler).
	txMsg   Message
	txBuf   []byte
	rxMsg   Message
	scratch []peer

	tick *clock.Task

	stats   counters
	obsHits *obs.Counter
	obsMiss *obs.Counter
}

// New creates an overlay node on cfg.Host. Call Start to join.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Host == nil {
		return nil, fmt.Errorf("overlay: Config.Host is required")
	}
	n := &Node{
		cfg:       cfg,
		id:        sip.HashAOR(string(cfg.Host.ID())),
		host:      cfg.Host,
		clk:       cfg.Host.Clock(),
		sched:     cfg.Host.Sched(),
		skey:      "dht/" + string(cfg.Host.ID()),
		records:   make(map[string]record),
		published: make(map[string]pub),
		pending:   make(map[uint32]*pendingRPC),
	}
	if cfg.Obs.Enabled() {
		n.obsHits = cfg.Obs.Counter("overlay.lookups.hits")
		n.obsMiss = cfg.Obs.Counter("overlay.lookups.misses")
	}
	return n, nil
}

// ID returns the node's position in the key space.
func (n *Node) ID() uint32 { return n.id }

// Addr returns the node's transport host ID.
func (n *Node) Addr() netem.NodeID { return n.host.ID() }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	stored := int64(len(n.records))
	n.mu.Unlock()
	return Stats{
		Sent:          n.stats.sent.Load(),
		Received:      n.stats.received.Load(),
		Lookups:       n.stats.lookups.Load(),
		LookupHits:    n.stats.lookupHits.Load(),
		LookupMisses:  n.stats.lookupMisses.Load(),
		StoresServed:  n.stats.storesServed.Load(),
		Republishes:   n.stats.republishes.Load(),
		RepairStores:  n.stats.repairStores.Load(),
		Timeouts:      n.stats.timeouts.Load(),
		Evictions:     n.stats.evictions.Load(),
		StoredRecords: stored,
	}
}

// Start binds the overlay port, seeds the routing table from the bootstrap
// list and begins the join lookup plus the re-publication cycle.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return fmt.Errorf("overlay: node already started")
	}
	n.started = true
	n.mu.Unlock()
	conn, err := n.host.Listen(n.cfg.Port)
	if err != nil {
		return fmt.Errorf("overlay: bind: %w", err)
	}
	n.conn = conn
	conn.Handle(n.onDatagram)

	n.mu.Lock()
	for _, b := range n.cfg.Bootstrap {
		if b == n.host.ID() {
			continue
		}
		n.addPeerLocked(sip.HashAOR(string(b)), b)
	}
	// Join: locate the neighbourhood of our own ID. The replies populate
	// buckets across prefixes as a side effect.
	n.startLookupLocked(n.id, "", false, nil)
	n.mu.Unlock()
	n.drainFired()

	n.tick = n.sched.Every(n.skey, n.cfg.Republish, n.onTick)
	return nil
}

// Close shuts the node down: future timers stop, pending RPCs die silently.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, p := range n.pending {
		p.timer.Stop()
	}
	n.pending = make(map[uint32]*pendingRPC)
	n.mu.Unlock()
	n.tick.Stop()
	if n.conn != nil {
		n.conn.Close()
	}
}

// Publish announces an AOR → contact binding owned by this node: it is
// stored on the K closest overlay nodes now and re-published every Republish
// interval until Unpublish.
func (n *Node) Publish(aor, contact string) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.nextSeq++
	seq := n.nextSeq
	n.published[aor] = pub{value: contact, seq: seq}
	n.publishOneLocked(aor, contact, seq)
	n.mu.Unlock()
	n.drainFired()
}

// Unpublish stops re-publishing an AOR. Stored replicas age out by TTL.
func (n *Node) Unpublish(aor string) {
	n.mu.Lock()
	delete(n.published, aor)
	n.mu.Unlock()
}

// LookupAsync starts an iterative FIND_VALUE for aor; cb is invoked exactly
// once with the binding's contact, or ok=false when the lookup converges
// without finding one. cb runs on a shard worker and must not block.
func (n *Node) LookupAsync(aor string, cb func(contact string, ok bool)) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		cb("", false)
		return
	}
	// Local fast path: we hold a replica or own the binding.
	if p, ok := n.published[aor]; ok {
		n.mu.Unlock()
		cb(p.value, true)
		return
	}
	if r, ok := n.records[aor]; ok && n.clk.Now().Before(r.expires) {
		n.mu.Unlock()
		cb(r.value, true)
		return
	}
	n.stats.lookups.Add(1)
	n.startLookupLocked(sip.HashAOR(aor), aor, true, func(res lookupResult) {
		if res.found {
			n.stats.lookupHits.Add(1)
			n.obsHits.Add(1)
			cb(res.value, true)
		} else {
			n.stats.lookupMisses.Add(1)
			n.obsMiss.Add(1)
			cb("", false)
		}
	})
	n.mu.Unlock()
	n.drainFired()
}

// Lookup is the blocking facade over LookupAsync used by the proxy's
// resolver chain: it waits for the lookup to converge or the timeout to
// elapse. Returns ErrNotFound on a converged miss, ErrTimeout past the
// deadline, ErrClosed when the node is down.
func (n *Node) Lookup(aor string, timeout time.Duration) (string, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return "", ErrClosed
	}
	var out struct {
		done  clock.Gate
		value string
		ok    bool
	}
	out.done.Init(n.clk)
	n.LookupAsync(aor, func(v string, ok bool) {
		out.value, out.ok = v, ok
		out.done.Open()
	})
	switch {
	case clock.Wait("overlay.Node.Lookup", timeout, &out.done) != 0:
		return "", ErrTimeout
	case !out.ok:
		return "", ErrNotFound
	}
	return out.value, nil
}

// Peers returns the number of distinct peers across all k-buckets.
func (n *Node) Peers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for i := range n.buckets {
		total += len(n.buckets[i])
	}
	return total
}

// --- periodic work ---------------------------------------------------------

// onTick is the node's single recurring task: expire dead replicas, re-publish
// owned bindings through a fresh iterative lookup (churn-aware placement: the
// K closest *live* nodes get the binding), and directly refresh held replicas
// onto the currently known closest peers so bindings survive the crash of
// their original publisher.
func (n *Node) onTick(time.Time) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	now := n.clk.Now()
	for aor, r := range n.records {
		if !now.Before(r.expires) {
			delete(n.records, aor)
		}
	}
	// Deterministic iteration order: sorted AORs.
	aors := make([]string, 0, len(n.published))
	for aor := range n.published {
		aors = append(aors, aor)
	}
	sort.Strings(aors)
	for _, aor := range aors {
		p := n.published[aor]
		n.stats.republishes.Add(1)
		n.publishOneLocked(aor, p.value, p.seq)
	}
	if !n.cfg.Passive {
		held := make([]string, 0, len(n.records))
		for aor := range n.records {
			held = append(held, aor)
		}
		sort.Strings(held)
		for _, aor := range held {
			r := n.records[aor]
			ttl := r.expires.Sub(now)
			if ttl < time.Second {
				// Not worth forwarding: the floor in ttlSec would store a
				// zero-lifetime replica. The owner's republish (or expiry)
				// settles this binding's fate.
				continue
			}
			n.repairLocked(aor, r.value, r.seq, ttl)
		}
	}
	n.mu.Unlock()
	n.drainFired()
}

// publishOneLocked places a binding on the K closest nodes found by a fresh
// iterative lookup.
func (n *Node) publishOneLocked(aor, value string, seq uint32) {
	key := sip.HashAOR(aor)
	n.startLookupLocked(key, "", false, func(res lookupResult) {
		n.storeTo(res.closest, key, aor, value, seq, n.cfg.TTL)
	})
}

// repairLocked re-stores a held replica directly onto the K closest known
// peers (no lookup round: bucket knowledge is fresh enough between ticks and
// the owner's periodic lookup corrects placement drift).
func (n *Node) repairLocked(aor, value string, seq uint32, ttl time.Duration) {
	key := sip.HashAOR(aor)
	closest := n.closestToLocked(key, n.cfg.K)
	for _, p := range closest {
		n.stats.repairStores.Add(1)
		n.sendStoreLocked(p, key, aor, value, seq, ttl)
	}
}

// storeTo sends STORE for a binding to a set of peers (locks internally).
func (n *Node) storeTo(peers []peer, key uint32, aor, value string, seq uint32, ttl time.Duration) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	for _, p := range peers {
		n.sendStoreLocked(p, key, aor, value, seq, ttl)
	}
	n.mu.Unlock()
	n.drainFired()
}

func (n *Node) sendStoreLocked(p peer, key uint32, aor, value string, seq uint32, ttl time.Duration) {
	m := &n.txMsg
	m.Kind = KindStore
	m.Key = key
	m.Seq = seq
	m.TTLSec = ttlSec(ttl)
	m.AOR = append(m.AOR[:0], aor...)
	m.Value = append(m.Value[:0], value...)
	m.Nodes = m.Nodes[:0]
	n.sendRPCLocked(p, m, KindStored, func(*Message) {}, func() {})
}

// --- k-buckets -------------------------------------------------------------

// bucketIndex maps a peer ID to its k-bucket: shared-prefix length with our
// own ID. Never called with id == n.id.
func (n *Node) bucketIndex(id uint32) int {
	return bits.LeadingZeros32(id ^ n.id)
}

// addPeerLocked inserts a peer, keeping each bucket sorted by ID. A full
// bucket drops the newcomer (Kademlia prefers long-lived peers; eviction
// happens only on RPC timeout), which also keeps the routing table a pure
// function of the peer set — no arrival-order dependence to break replay.
func (n *Node) addPeerLocked(id uint32, addr netem.NodeID) {
	if id == n.id || id == 0 {
		return
	}
	b := n.buckets[n.bucketIndex(id)]
	i := sort.Search(len(b), func(i int) bool { return b[i].id >= id })
	if i < len(b) && b[i].id == id {
		if b[i].addr != addr {
			// Same key-space position, new transport (host restarted under
			// a name hashing identically): take the fresh address.
			b[i].addr = addr
			b[i].addrB = []byte(addr)
		}
		return
	}
	if len(b) >= bucketCap {
		return
	}
	b = append(b, peer{})
	copy(b[i+1:], b[i:])
	b[i] = peer{id: id, addr: addr, addrB: []byte(addr)}
	n.buckets[n.bucketIndex(id)] = b
}

func (n *Node) removePeerLocked(id uint32) {
	if id == n.id || id == 0 {
		return
	}
	idx := n.bucketIndex(id)
	b := n.buckets[idx]
	i := sort.Search(len(b), func(i int) bool { return b[i].id >= id })
	if i < len(b) && b[i].id == id {
		n.buckets[idx] = append(b[:i], b[i+1:]...)
		n.stats.evictions.Add(1)
	}
}

// closestToLocked returns up to k known peers sorted by XOR distance to key
// (ties by ID). The result aliases n.scratch — copy before releasing mu if
// retained.
func (n *Node) closestToLocked(key uint32, k int) []peer {
	n.scratch = n.scratch[:0]
	for i := range n.buckets {
		n.scratch = append(n.scratch, n.buckets[i]...)
	}
	sort.Slice(n.scratch, func(i, j int) bool {
		di, dj := n.scratch[i].id^key, n.scratch[j].id^key
		if di != dj {
			return di < dj
		}
		return n.scratch[i].id < n.scratch[j].id
	})
	if len(n.scratch) > k {
		n.scratch = n.scratch[:k]
	}
	return n.scratch
}

// --- transport -------------------------------------------------------------

func (n *Node) fromID() uint32 {
	if n.cfg.Passive {
		return 0
	}
	return n.id
}

// sendLocked marshals m into the reused tx buffer and ships it.
func (n *Node) sendLocked(m *Message, dst netem.NodeID, port uint16) {
	n.txBuf = m.AppendTo(n.txBuf[:0])
	n.stats.sent.Add(1)
	_ = n.conn.WriteTo(n.txBuf, dst, port)
}

// sendRPCLocked issues a request with a correlation ID and arms its timeout
// on the scheduler. A timeout evicts the peer and reports failure.
func (n *Node) sendRPCLocked(to peer, m *Message, respKind uint8, onReply func(*Message), onTimeout func()) {
	n.nextRPC++
	rpc := n.nextRPC
	m.RPC = rpc
	m.From = n.fromID()
	p := &pendingRPC{kind: respKind, to: to, onReply: onReply, onDone: onTimeout}
	n.pending[rpc] = p
	p.timer = n.sched.After(n.skey, n.cfg.RPCTimeout, func(time.Time) { n.onRPCTimeout(rpc) })
	n.sendLocked(m, to.addr, n.cfg.Port)
}

func (n *Node) onRPCTimeout(rpc uint32) {
	n.mu.Lock()
	p := n.pending[rpc]
	if p == nil || n.closed {
		n.mu.Unlock()
		return
	}
	delete(n.pending, rpc)
	n.stats.timeouts.Add(1)
	n.removePeerLocked(p.to.id)
	p.onDone()
	n.mu.Unlock()
	n.drainFired()
}

// drainFired runs completion callbacks queued while mu was held. Callbacks
// may re-enter the node (Publish continuations do).
func (n *Node) drainFired() {
	for {
		n.mu.Lock()
		fired := n.fired
		n.fired = nil
		n.mu.Unlock()
		if len(fired) == 0 {
			return
		}
		for _, fn := range fired {
			fn()
		}
	}
}

// onDatagram is the inline receive path: parse into the reused rx message,
// refresh the sender's bucket, then serve the request or complete the RPC.
func (n *Node) onDatagram(dg *netem.Datagram) {
	m := &n.rxMsg
	if err := ParseInto(m, dg.Data); err != nil {
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.stats.received.Add(1)
	n.addPeerLocked(m.From, dg.SrcNode)
	switch m.Kind {
	case KindPing:
		n.replyLocked(m, KindPong, dg)
	case KindFindNode:
		n.serveFindLocked(m, dg, false)
	case KindFindValue:
		n.serveFindLocked(m, dg, true)
	case KindStore:
		n.serveStoreLocked(m, dg)
	case KindPong, KindNodes, KindValue, KindStored:
		n.completeRPCLocked(m)
	}
	n.mu.Unlock()
	n.drainFired()
}

// replyLocked sends a minimal response echoing the request's RPC id.
func (n *Node) replyLocked(req *Message, kind uint8, dg *netem.Datagram) {
	r := &n.txMsg
	r.Kind = kind
	r.RPC = req.RPC
	r.From = n.fromID()
	r.Key = 0
	r.Seq = 0
	r.TTLSec = 0
	r.AOR = r.AOR[:0]
	r.Value = r.Value[:0]
	r.Nodes = r.Nodes[:0]
	n.sendLocked(r, dg.SrcNode, dg.SrcPort)
}

// serveFindLocked answers FIND_NODE and FIND_VALUE. A value hit returns the
// binding; otherwise up to a full bucket of closest known peers (excluding
// the asker) guides the iterative lookup onward. The fan-out is bucketCap,
// not the replication factor K: with sparse per-node routing tables a K-sized
// response starves the search and lets it converge on a local minimum that
// differs from the publisher's placement set.
func (n *Node) serveFindLocked(req *Message, dg *netem.Datagram, wantValue bool) {
	key := req.Key
	from := req.From
	r := &n.txMsg
	r.Kind = KindNodes
	r.RPC = req.RPC
	r.Key = key
	r.Seq = 0
	r.TTLSec = 0
	r.Value = r.Value[:0]
	r.Nodes = r.Nodes[:0]
	if wantValue {
		r.Kind = KindValue
		aor := string(req.AOR)
		r.AOR = append(r.AOR[:0], aor...)
		if rec, ok := n.records[aor]; ok && n.clk.Now().Before(rec.expires) {
			r.Value = append(r.Value, rec.value...)
			r.Seq = rec.seq
			r.TTLSec = ttlSec(rec.expires.Sub(n.clk.Now()))
			r.From = n.fromID()
			n.sendLocked(r, dg.SrcNode, dg.SrcPort)
			return
		}
	} else {
		r.AOR = r.AOR[:0]
	}
	for _, p := range n.closestToLocked(key, bucketCap) {
		if p.id == from {
			continue
		}
		r.Nodes = append(r.Nodes, NodeInfo{ID: p.id, Addr: p.addrB})
	}
	r.From = n.fromID()
	n.sendLocked(r, dg.SrcNode, dg.SrcPort)
}

// serveStoreLocked accepts a replica. Sequence numbers make replicas
// convergent: an equal-or-newer seq upserts (refreshing the TTL), an older
// one is ignored — arrival order never matters.
func (n *Node) serveStoreLocked(req *Message, dg *netem.Datagram) {
	if !n.cfg.Passive {
		aor := string(req.AOR)
		cur, exists := n.records[aor]
		if !exists || req.Seq >= cur.seq {
			n.records[aor] = record{
				value:   string(req.Value),
				seq:     req.Seq,
				expires: n.clk.Now().Add(time.Duration(req.TTLSec) * time.Second),
			}
			n.stats.storesServed.Add(1)
		}
	}
	n.replyLocked(req, KindStored, dg)
}

// completeRPCLocked matches a response to its pending request.
func (n *Node) completeRPCLocked(m *Message) {
	p := n.pending[m.RPC]
	if p == nil || p.kind != m.Kind {
		return
	}
	delete(n.pending, m.RPC)
	p.timer.Stop()
	p.onReply(m)
}

// --- iterative lookup ------------------------------------------------------

const (
	candNew uint8 = iota
	candInflight
	candDone
	candFailed
)

type cand struct {
	p     peer
	state uint8
}

type lookupResult struct {
	found bool
	value string
	seq   uint32
	// closest holds the K closest responding peers, the replica set a
	// publish continuation stores to.
	closest []peer
}

// lookup is one iterative FIND_NODE/FIND_VALUE state machine. All methods
// run with n.mu held; progress is driven by RPC completions and timeouts.
type lookup struct {
	n         *Node
	key       uint32
	aor       string
	wantValue bool
	cands     []cand // sorted by (XOR distance to key, id)
	inflight  int
	done      bool
	found     bool
	value     string
	seq       uint32
	onDone    func(lookupResult)
}

// startLookupLocked seeds a lookup from the routing table and fires the
// first alpha queries. onDone (may be nil) is queued on n.fired so it runs
// outside the lock.
func (n *Node) startLookupLocked(key uint32, aor string, wantValue bool, onDone func(lookupResult)) {
	l := &lookup{n: n, key: key, aor: aor, wantValue: wantValue, onDone: onDone}
	for _, p := range n.closestToLocked(key, bucketCap) {
		l.cands = append(l.cands, cand{p: p})
	}
	l.stepLocked()
}

func (l *lookup) dist(id uint32) uint32 { return id ^ l.key }

// mergeLocked inserts newly learned peers into the sorted candidate list.
func (l *lookup) mergeLocked(nodes []NodeInfo) {
	for i := range nodes {
		id := nodes[i].ID
		if id == 0 || id == l.n.id {
			continue
		}
		addr := netem.NodeID(nodes[i].Addr)
		l.n.addPeerLocked(id, addr)
		pos := sort.Search(len(l.cands), func(j int) bool {
			dj, di := l.dist(l.cands[j].p.id), l.dist(id)
			if dj != di {
				return dj >= di
			}
			return l.cands[j].p.id >= id
		})
		if pos < len(l.cands) && l.cands[pos].p.id == id {
			continue
		}
		l.cands = append(l.cands, cand{})
		copy(l.cands[pos+1:], l.cands[pos:])
		l.cands[pos] = cand{p: peer{id: id, addr: addr, addrB: []byte(addr)}}
	}
}

// nextLocked picks the next candidate to query: the closest unqueried one,
// unless the bucketCap closest live candidates have already answered. The
// termination width is the bucket size, NOT the replication factor K: the
// search must map the whole neighborhood around the key, then placement (and
// the result's closest set) takes the K best of it. Terminating at K answers
// lets a reader stop on two mid-distance peers that never heard of the
// publisher's true closest set — persistent misses with no churn at all.
func (l *lookup) nextLocked() int {
	live := 0
	for i := range l.cands {
		switch l.cands[i].state {
		case candNew:
			return i
		case candDone, candInflight:
			live++
			if live >= bucketCap {
				return -1
			}
		}
	}
	return -1
}

func (l *lookup) stepLocked() {
	if l.done {
		return
	}
	if l.found {
		l.finishLocked()
		return
	}
	for l.inflight < l.n.cfg.Alpha {
		i := l.nextLocked()
		if i < 0 {
			break
		}
		l.cands[i].state = candInflight
		l.inflight++
		l.queryLocked(l.cands[i].p)
	}
	if l.inflight == 0 {
		l.finishLocked()
	}
}

func (l *lookup) queryLocked(p peer) {
	n := l.n
	m := &n.txMsg
	m.Kind = KindFindNode
	if l.wantValue {
		m.Kind = KindFindValue
	}
	m.Key = l.key
	m.Seq = 0
	m.TTLSec = 0
	m.AOR = append(m.AOR[:0], l.aor...)
	m.Value = m.Value[:0]
	m.Nodes = m.Nodes[:0]
	respKind := uint8(KindNodes)
	if l.wantValue {
		respKind = KindValue
	}
	id := p.id
	n.sendRPCLocked(p, m, respKind, func(resp *Message) {
		l.onReplyLocked(id, resp)
	}, func() {
		l.onTimeoutLocked(id)
	})
}

func (l *lookup) candIndex(id uint32) int {
	for i := range l.cands {
		if l.cands[i].p.id == id {
			return i
		}
	}
	return -1
}

func (l *lookup) onReplyLocked(id uint32, resp *Message) {
	if l.done {
		return
	}
	if i := l.candIndex(id); i >= 0 && l.cands[i].state == candInflight {
		l.cands[i].state = candDone
		l.inflight--
	}
	if l.wantValue && len(resp.Value) > 0 {
		// First value wins; replicas converge by seq, so any live replica
		// is as authoritative as the overlay gets mid-churn.
		l.found = true
		l.value = string(resp.Value)
		l.seq = resp.Seq
	} else {
		l.mergeLocked(resp.Nodes)
	}
	l.stepLocked()
}

func (l *lookup) onTimeoutLocked(id uint32) {
	if l.done {
		return
	}
	if i := l.candIndex(id); i >= 0 && l.cands[i].state == candInflight {
		l.cands[i].state = candFailed
		l.inflight--
	}
	l.stepLocked()
}

func (l *lookup) finishLocked() {
	if l.done {
		return
	}
	l.done = true
	res := lookupResult{found: l.found, value: l.value, seq: l.seq}
	for i := range l.cands {
		if l.cands[i].state != candDone {
			continue
		}
		res.closest = append(res.closest, l.cands[i].p)
		if len(res.closest) >= l.n.cfg.K {
			break
		}
	}
	if cb := l.onDone; cb != nil {
		l.n.fired = append(l.n.fired, func() { cb(res) })
	}
}

// ttlSec floors a duration to whole seconds. Flooring matters: replica
// repair forwards the *remaining* lifetime, and rounding up would let
// replicas refresh each other past the owner's TTL forever.
func ttlSec(d time.Duration) uint16 {
	s := d / time.Second
	if s < 0 {
		s = 0
	}
	if s > 65535 {
		s = 65535
	}
	return uint16(s)
}
