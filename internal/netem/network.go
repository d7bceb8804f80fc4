package netem

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/obs"
)

// Position is a node's 2-D location in metres.
type Position struct {
	X, Y float64
}

// Distance returns the Euclidean distance to q.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Config tunes the radio medium. The zero value is completed by defaults in
// NewNetwork.
type Config struct {
	// Range is the unit-disk radio range in metres (default 100).
	Range float64
	// BaseDelay is the fixed per-frame propagation+processing delay
	// (default 500µs). A negative value means no simulated delay at all (the
	// UDP underlay, where the real network provides the latency).
	BaseDelay time.Duration
	// DelayJitter adds a uniformly random extra delay in [0, DelayJitter)
	// per frame, modelling contention and queueing variance (default 0).
	DelayJitter time.Duration
	// BytesPerSecond models transmission time; 0 disables the size-
	// dependent component (default 6.75 MB/s, ~54 Mbit/s 802.11g).
	BytesPerSecond float64
	// LossRate is the independent per-frame drop probability in [0,1).
	LossRate float64
	// Seed seeds the deterministic RNG used for losses (default 1).
	Seed int64
	// Clock drives delivery delays (default the system clock).
	Clock clock.Clock
	// Obs receives medium-level metrics (frame/byte/loss counters). Nil
	// disables observability at zero cost on the send path.
	Obs *obs.Observer
	// Shards is the number of shards of the network's scheduler (default
	// GOMAXPROCS, clamped to [1, GOMAXPROCS]); the network runs one worker
	// goroutine per shard, whatever the host count, and that worker runs both
	// the frames and the timers keyed to it in one (due, seq) order. Unicast
	// traffic shards by destination and broadcasts by source, so with more
	// than one shard a receiver is fed from several workers and the order in
	// which it sees frames from different senders depends on the host's
	// scheduling. With Shards 1 there is one queue and one total order: what
	// is due at the same instant runs in the order it was queued. A test that
	// asserts bit-identical replay sets Shards to 1; nothing else needs to.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.Range == 0 {
		c.Range = 100
	}
	if c.BaseDelay == 0 {
		c.BaseDelay = 500 * time.Microsecond
	}
	if c.BytesPerSecond == 0 {
		c.BytesPerSecond = 54e6 / 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	return c
}

// neighborhood is one node's cached receiver set: the nodes in radio range,
// sorted by ID, plus their host stacks in matching order. Entries are
// immutable once published — topology changes replace them wholesale — so
// the broadcast path and queued deliveries may share them without
// copying.
type neighborhood struct {
	ids   []NodeID
	hosts []*Host
}

// gridCell indexes the spatial grid; cells are Range metres on a side, so a
// node's neighbours always lie within the 3x3 block around its own cell.
type gridCell struct{ x, y int32 }

// Network is the shared simulated radio medium. All methods are safe for
// concurrent use.
type Network struct {
	cfg Config

	// mu guards topology: hosts, positions, link overrides, the adjacency
	// cache and its spatial grid. The steady-state send path only ever
	// takes the read side.
	mu        sync.RWMutex
	hosts     map[NodeID]*Host
	positions map[NodeID]Position
	// linkOverride forces a link up (true) or down (false) regardless of
	// distance; used by partition/failure-injection tests.
	linkOverride map[linkKey]bool
	adj          map[NodeID]*neighborhood
	grid         map[gridCell][]NodeID
	// nodesCache is the sorted node-ID snapshot, invalidated on the same
	// topology epoch as adj. Immutable once published.
	nodesCache []NodeID
	closed     bool

	// handles is the node-handle table (see Handles); handleMu serializes
	// the inserts that replace it.
	handles  atomic.Pointer[Handles]
	handleMu sync.Mutex

	// foreign holds OwnedID's copies of IDs that name no attached host.
	foreignMu sync.Mutex
	foreign   map[NodeID]NodeID

	// rngMu serializes loss/jitter draws so a given Seed yields one
	// deterministic sequence, independent of stats or topology locking.
	rngMu sync.Mutex
	rng   *rand.Rand

	lossBits atomic.Uint64 // math.Float64bits of the live loss rate

	// linkQuality holds per-link loss/latency overrides, copy-on-write so
	// the send path reads it with one atomic load. Nil means no overrides
	// anywhere — the steady state — and the send path stays on the global
	// fast path.
	linkQuality atomic.Pointer[map[linkKey]LinkQuality]

	stats counters
	tap   atomic.Pointer[func(Frame)]
	udp   atomic.Pointer[udpUnderlay]
	// sched is the network's one scheduler, on the network's clock and
	// stopped with it. Every frame delivery is a task on it, and so is every
	// protocol timer and paced media frame of every host (see Host.Sched): a
	// shard's worker delivers a frame and, inline, runs the receiver's
	// handling of it.
	sched *clock.Scheduler

	// Pre-resolved obs handles; all nil when cfg.Obs is nil, so the send
	// hot path pays a single branch in disabled mode.
	obsFrames *obs.Counter
	obsBytes  *obs.Counter
	obsLost   *obs.Counter
}

type linkKey struct{ a, b NodeID }

func orderedKey(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// NewNetwork creates an empty medium.
func NewNetwork(cfg Config) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		hosts:        make(map[NodeID]*Host),
		positions:    make(map[NodeID]Position),
		linkOverride: make(map[linkKey]bool),
		adj:          make(map[NodeID]*neighborhood),
		foreign:      make(map[NodeID]NodeID),
		sched:        clock.NewScheduler(cfg.Clock, cfg.Shards),
	}
	n.handles.Store(&Handles{})
	n.lossBits.Store(math.Float64bits(cfg.LossRate))
	if cfg.Obs.Enabled() {
		n.obsFrames = cfg.Obs.Counter("netem.frames")
		n.obsBytes = cfg.Obs.Counter("netem.bytes")
		n.obsLost = cfg.Obs.Counter("netem.frames.lost")
	}
	return n
}

// Clock returns the clock driving the medium.
func (n *Network) Clock() clock.Clock { return n.cfg.Clock }

// Sched returns the network's scheduler, the one Host.Sched hands out.
func (n *Network) Sched() *clock.Scheduler { return n.sched }

// delivery is one scheduled frame hand-off: a frame plus the receiver set it
// must reach once its deadline passes, as a task on the network's scheduler.
// Unicast frames use the inline host field so the common case allocates no
// slice; broadcast frames reference the adjacency cache's immutable host slice
// directly (the cache is replaced, not mutated, on topology changes, so
// sharing is safe).
type delivery struct {
	task  clock.Task // bound to run once per pooled object, by newDelivery
	frame Frame
	one   *Host
	many  []*Host
	// hdr is the header of the datagram the frame delivers, lent to the
	// receiving handler for the length of its call (see Frame).
	hdr Datagram
	// local carries a zero-delay loopback datagram, hdr with its Data in
	// frame.Payload: routing it through the host's shard instead of invoking
	// the receiver inline keeps per-host delivery serialized and prevents
	// reentrant handler nesting when an application answers its own host.
	local *Host
}

var deliveryPool sync.Pool // of *delivery; no New, which would be an init cycle

func newDelivery() *delivery {
	d, _ := deliveryPool.Get().(*delivery)
	if d == nil {
		d = new(delivery)
		d.task.Init(d.run, nil)
	}
	return d
}

// run delivers on the shard worker, gives the frame's wire buffer back once the
// last receiver of the fan-out has returned — unless a relay sent it on — and
// returns d to the pool. A delivery dropped by the scheduler's shutdown is
// simply garbage.
func (d *delivery) run(time.Time) {
	sentOn := false
	switch {
	case d.local != nil:
		d.local.deliverLocal(&d.hdr)
	case d.one != nil:
		sentOn = d.one.enqueue(d.frame, &d.hdr)
	default:
		for _, h := range d.many {
			h.enqueue(d.frame, &d.hdr)
		}
	}
	if !sentOn {
		giveWire(d.frame)
	}
	d.frame, d.one, d.many, d.hdr, d.local = Frame{}, nil, nil, Datagram{}, nil
	deliveryPool.Put(d)
}

// voiceWireBytes is the small wire-buffer size: a G.711 frame (160 bytes of
// audio under a 12-byte RTP header) under a datagram header with room for two
// node IDs of 38 bytes.
const voiceWireBytes = 256

// The wire-buffer free list. A datagram on the medium is its encoding in one
// buffer, taken by the host that originates it and given back by whatever
// ends the frame's life; a routing control frame is built in one by its
// protocol (TakeWire, SendWire). There are two sizes and the length alone
// picks one.
// The pools hold array pointers, so Put boxes nothing, and being sync.Pools
// they pin nothing across a collection.
var (
	voiceWires sync.Pool // of *[voiceWireBytes]byte
	mtuWires   sync.Pool // of *[MTU]byte
)

// poison is what a wire buffer is overwritten with on its way back to the
// free list, so that a handler which kept an alias of a delivered frame or
// datagram (see Frame) reads the same wrong bytes on every run instead of a
// later frame's.
var poison = bytes.Repeat([]byte{0xDB}, MTU)

// takeWire returns an empty buffer with room for n bytes, and whether it came
// from the free list. Only a loopback datagram can be larger than the MTU.
func takeWire(n int) (buf []byte, pooled bool) {
	switch {
	case n <= voiceWireBytes:
		b, _ := voiceWires.Get().(*[voiceWireBytes]byte)
		if b == nil {
			b = new([voiceWireBytes]byte)
		}
		return b[:0], true
	case n <= MTU:
		b, _ := mtuWires.Get().(*[MTU]byte)
		if b == nil {
			b = new([MTU]byte)
		}
		return b[:0], true
	}
	return make([]byte, 0, n), false
}

// TakeWire lends the caller an empty wire buffer with room for n bytes, or for
// the MTU if n is more, to build a frame in and hand to SendWire (see Frame).
func TakeWire(n int) []byte {
	buf, _ := takeWire(min(n, MTU))
	return buf
}

// giveWire ends f's life: a payload that came from the free list is poisoned
// and goes back; any other is left to the collector.
func giveWire(f Frame) {
	if !f.pooled {
		return
	}
	b := f.Payload
	copy(b, poison)
	if cap(b) == voiceWireBytes {
		voiceWires.Put((*[voiceWireBytes]byte)(b[:voiceWireBytes]))
	} else {
		mtuWires.Put((*[MTU]byte)(b[:MTU]))
	}
}

// deliver queues f for one receiver or many at due. The shard is the
// destination's for unicast — all unicast traffic *to* a host (KindData and
// with it every Conn/sink delivery) runs on the shard its own timers and
// media run on, which is what keeps application-level datagram handling
// serial per host — and the source's for broadcast, so the whole fan-out
// stays one delivery object. Broadcast receivers therefore handle control
// frames on the sender's shard, possibly concurrently with their own — safe
// because every KindRouting/KindService handler is internally locked.
func (n *Network) deliver(f Frame, one *Host, many []*Host, due time.Time) {
	key := f.Src
	if one != nil {
		key = one.id
	}
	d := newDelivery()
	d.frame, d.one, d.many = f, one, many
	n.sched.At(string(key), &d.task, due)
}

// AddHost creates a node at pos and attaches its stack to the medium.
func (n *Network) AddHost(id NodeID, pos Position) (*Host, error) {
	if id == Broadcast {
		return nil, fmt.Errorf("netem: node id must be non-empty")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.hosts[id]; ok {
		return nil, fmt.Errorf("netem: duplicate node %q", id)
	}
	h := newHost(n, id)
	h.handle, _ = n.InternAll(id).Lookup(id)
	n.hosts[id] = h
	n.positions[id] = pos
	n.invalidateLocked()
	return h, nil
}

// Host returns the stack for id, or nil.
func (n *Network) Host(id NodeID) *Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hosts[id]
}

// hostID returns the network's own copy of id when id names an attached
// host. Code that decoded id out of a wire buffer uses it to get a NodeID that
// does not alias the buffer without allocating one.
func (n *Network) hostID(id NodeID) (NodeID, bool) {
	if h := n.Host(id); h != nil {
		return h.id, true
	}
	return "", false
}

// OwnedID returns a NodeID equal to id that aliases nothing a caller lends:
// the ID of the attached host it names, or else the network's one copy of an
// ID it has been asked for before (an Internet peer behind a gateway, a node
// that has left). Code that decoded id out of a borrowed buffer (see Frame)
// keeps what this returns, and pays an allocation only for an ID new to the
// network.
func (n *Network) OwnedID(id NodeID) NodeID {
	if own, ok := n.hostID(id); ok {
		return own
	}
	n.foreignMu.Lock()
	defer n.foreignMu.Unlock()
	if own, ok := n.foreign[id]; ok {
		return own
	}
	if len(n.foreign) >= maxForeignIDs {
		clear(n.foreign)
	}
	own := NodeID(strings.Clone(string(id)))
	n.foreign[own] = own
	return own
}

// maxForeignIDs bounds the copies OwnedID keeps of IDs no host answers to;
// past it they are forgotten at once, and the next ask copies again.
const maxForeignIDs = 1024

// RemoveHost detaches and closes the node, simulating a crash or power-off.
func (n *Network) RemoveHost(id NodeID) {
	n.mu.Lock()
	h := n.hosts[id]
	delete(n.hosts, id)
	delete(n.positions, id)
	n.invalidateLocked()
	n.mu.Unlock()
	if h != nil {
		h.Close()
	}
}

// SetPosition moves a node, changing its neighbourhood.
func (n *Network) SetPosition(id NodeID, pos Position) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[id]; ok {
		n.positions[id] = pos
		n.invalidateLocked()
	}
}

// PositionOf returns the node's position.
func (n *Network) PositionOf(id NodeID) (Position, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	p, ok := n.positions[id]
	return p, ok
}

// SetLink forces the link between a and b up or down irrespective of
// positions. ClearLink restores distance-based connectivity.
func (n *Network) SetLink(a, b NodeID, up bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkOverride[orderedKey(a, b)] = up
	n.invalidateLocked()
}

// ClearLink removes a SetLink override.
func (n *Network) ClearLink(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.linkOverride, orderedKey(a, b))
	n.invalidateLocked()
}

// SetTap installs a packet-analyzer hook invoked synchronously for every
// frame transmitted on the medium — the emulator's Wireshark, used to
// reproduce the paper's Figure 5 capture. The tap must not call back into
// the Network. It runs before the frame is scheduled and borrows the payload
// until it returns (see Frame): after that a unicast payload belongs to its
// receiver and a wire buffer to the free list, so a tap that keeps one must
// copy it. Pass nil to remove.
func (n *Network) SetTap(fn func(Frame)) {
	if fn == nil {
		n.tap.Store(nil)
		return
	}
	n.tap.Store(&fn)
}

// SetLossRate changes the per-frame drop probability at runtime.
func (n *Network) SetLossRate(p float64) {
	n.lossBits.Store(math.Float64bits(p))
}

// LinkQuality overrides the medium's behaviour on one specific link,
// modelling a degraded radio path (interference, marginal range) without
// touching the global knobs.
type LinkQuality struct {
	// Loss replaces the global LossRate for frames crossing the link, in
	// [0,1). Zero keeps the global rate.
	Loss float64
	// ExtraDelay is added to the propagation delay of frames crossing the
	// link.
	ExtraDelay time.Duration
}

// SetLinkQuality installs a per-link loss/latency override between a and b
// (both directions). The override does not change connectivity — use SetLink
// for cuts.
func (n *Network) SetLinkQuality(a, b NodeID, q LinkQuality) {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := make(map[linkKey]LinkQuality)
	if cur := n.linkQuality.Load(); cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[orderedKey(a, b)] = q
	n.linkQuality.Store(&next)
}

// ClearLinkQuality removes a SetLinkQuality override.
func (n *Network) ClearLinkQuality(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.linkQuality.Load()
	if cur == nil {
		return
	}
	next := make(map[linkKey]LinkQuality, len(*cur))
	for k, v := range *cur {
		next[k] = v
	}
	delete(next, orderedKey(a, b))
	if len(next) == 0 {
		n.linkQuality.Store(nil)
		return
	}
	n.linkQuality.Store(&next)
}

// qualityFor returns the effective loss rate and extra delay for one link
// under the override map m, nil when there are no overrides anywhere.
func qualityFor(m *map[linkKey]LinkQuality, a, b NodeID, global float64) (rate float64, extra time.Duration) {
	if m == nil {
		return global, 0
	}
	q, ok := (*m)[orderedKey(a, b)]
	if !ok {
		return global, 0
	}
	rate = global
	if q.Loss > 0 {
		rate = q.Loss
	}
	return rate, q.ExtraDelay
}

func (n *Network) lossRate() float64 {
	return math.Float64frombits(n.lossBits.Load())
}

// invalidateLocked bumps the topology epoch: every cached neighbourhood, the
// spatial grid and the node-list snapshot are discarded and recomputed lazily
// on next use.
func (n *Network) invalidateLocked() {
	clear(n.adj)
	n.grid = nil
	n.nodesCache = nil
}

// Neighbors returns the nodes currently in radio range of id, sorted. The
// slice is a shared immutable snapshot — it is replaced, never mutated, on
// topology changes — so callers must not modify it.
func (n *Network) Neighbors(id NodeID) []NodeID {
	nb := n.neighborhoodOf(id)
	if len(nb.ids) == 0 {
		return nil
	}
	return nb.ids
}

// neighborhoodOf returns the cached receiver set for id, computing it on a
// topology-epoch miss.
func (n *Network) neighborhoodOf(id NodeID) *neighborhood {
	n.mu.RLock()
	nb := n.adj[id]
	n.mu.RUnlock()
	if nb != nil {
		return nb
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if nb = n.adj[id]; nb != nil {
		return nb
	}
	nb = n.computeNeighborhoodLocked(id)
	n.adj[id] = nb
	return nb
}

func (n *Network) computeNeighborhoodLocked(id NodeID) *neighborhood {
	nb := &neighborhood{}
	n.gridNeighborsLocked(id, nb)
	sort.Slice(nb.ids, func(i, j int) bool { return nb.ids[i] < nb.ids[j] })
	nb.hosts = make([]*Host, len(nb.ids))
	for i, other := range nb.ids {
		nb.hosts[i] = n.hosts[other]
	}
	return nb
}

// gridNeighborsLocked collects id's neighbours via the spatial grid: only
// the 3x3 cell block around id can hold in-range nodes, then link overrides
// are applied (down-overrides inside the block are rejected by
// connectedLocked; up-overrides may add nodes from anywhere).
func (n *Network) gridNeighborsLocked(id NodeID, nb *neighborhood) {
	if n.grid == nil {
		n.grid = make(map[gridCell][]NodeID, len(n.positions))
		for other, p := range n.positions {
			c := n.cellOf(p)
			n.grid[c] = append(n.grid[c], other)
		}
	}
	pos, ok := n.positions[id]
	if ok {
		c := n.cellOf(pos)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for _, other := range n.grid[gridCell{c.x + dx, c.y + dy}] {
					if other != id && n.connectedLocked(id, other) {
						nb.ids = append(nb.ids, other)
					}
				}
			}
		}
	}
	for k, up := range n.linkOverride {
		if !up {
			continue
		}
		other := NodeID("")
		switch id {
		case k.a:
			other = k.b
		case k.b:
			other = k.a
		default:
			continue
		}
		if _, exists := n.hosts[other]; !exists {
			continue
		}
		dup := false
		for _, have := range nb.ids {
			if have == other {
				dup = true
				break
			}
		}
		if !dup {
			nb.ids = append(nb.ids, other)
		}
	}
}

func (n *Network) cellOf(p Position) gridCell {
	return gridCell{int32(math.Floor(p.X / n.cfg.Range)), int32(math.Floor(p.Y / n.cfg.Range))}
}

func (n *Network) connectedLocked(a, b NodeID) bool {
	if up, ok := n.linkOverride[orderedKey(a, b)]; ok {
		return up
	}
	pa, oka := n.positions[a]
	pb, okb := n.positions[b]
	return oka && okb && pa.Distance(pb) <= n.cfg.Range
}

// Nodes returns all attached node IDs, sorted. The slice is a shared
// immutable snapshot cached on the topology epoch (the same invalidation as
// the adjacency cache), so callers must not modify it.
func (n *Network) Nodes() []NodeID {
	n.mu.RLock()
	cached := n.nodesCache
	n.mu.RUnlock()
	if cached != nil {
		return cached
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.nodesCache != nil {
		return n.nodesCache
	}
	out := make([]NodeID, 0, len(n.hosts))
	for id := range n.hosts {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n.nodesCache = out
	return out
}

// send transmits a frame from the medium's point of view: computes the
// receiver set (a cached map lookup in steady state), applies loss, and
// hands the frame to the scheduler with its deadline.
func (n *Network) send(f Frame) error {
	if len(f.Payload) > MTU {
		giveWire(f)
		return ErrFrameTooBig
	}
	var one *Host
	var many []*Host
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		giveWire(f)
		return ErrClosed
	}
	if _, ok := n.hosts[f.Src]; !ok {
		n.mu.RUnlock()
		giveWire(f)
		return ErrUnknownNode
	}
	if f.Dst == Broadcast {
		nb := n.adj[f.Src]
		n.mu.RUnlock()
		if nb == nil {
			nb = n.neighborhoodOf(f.Src)
		}
		many = nb.hosts
	} else {
		if h, ok := n.hosts[f.Dst]; ok && n.connectedLocked(f.Src, f.Dst) {
			one = h
		}
		n.mu.RUnlock()
	}
	receivers := len(many)
	if one != nil {
		receivers = 1
	}
	n.stats.recordFrame(f, receivers)
	if n.obsFrames != nil {
		n.obsFrames.Inc()
		n.obsBytes.Add(int64(len(f.Payload)))
	}

	delay := n.cfg.BaseDelay
	if n.cfg.BytesPerSecond > 0 {
		delay += time.Duration(float64(len(f.Payload)) / n.cfg.BytesPerSecond * float64(time.Second))
	}
	// Jitter and loss share one critical section so a given Seed produces
	// one deterministic draw sequence: jitter first, then an independent
	// loss draw per receiver in sorted-ID order. Per-link quality overrides
	// keep that exact order — each receiver's draw just uses its own rate.
	lossRate := n.lossRate()
	lq := n.linkQuality.Load()
	var slow []*Host // broadcast receivers peeled off by per-link ExtraDelay
	var slowExtra []time.Duration
	if n.cfg.DelayJitter > 0 || lossRate > 0 || lq != nil {
		n.rngMu.Lock()
		if n.cfg.DelayJitter > 0 {
			delay += time.Duration(n.rng.Int63n(int64(n.cfg.DelayJitter)))
		}
		if one != nil {
			rate, extra := qualityFor(lq, f.Src, f.Dst, lossRate)
			if rate > 0 && n.rng.Float64() < rate {
				one = nil
				n.stats.lost.Add(1)
				n.obsLost.Inc()
			} else {
				delay += extra
			}
		} else if lossRate > 0 || lq != nil {
			// many is the cached neighbourhood, shared with every other
			// broadcast from f.Src: it is copied when the first receiver is
			// peeled off and not before, which on a 1 %-loss radio is for a
			// few broadcasts in a hundred.
			var kept []*Host
			for i, h := range many {
				rate, extra := qualityFor(lq, f.Src, h.id, lossRate)
				switch {
				case rate > 0 && n.rng.Float64() < rate:
					n.stats.lost.Add(1)
					n.obsLost.Inc()
				case extra > 0:
					slow = append(slow, h)
					slowExtra = append(slowExtra, extra)
				default:
					if kept != nil {
						kept = append(kept, h)
					}
					continue
				}
				if kept == nil {
					kept = append(make([]*Host, 0, len(many)-1), many[:i]...)
				}
			}
			if kept != nil {
				many = kept
			}
		}
		n.rngMu.Unlock()
	}
	if delay < 0 {
		delay = 0 // UDP underlay: the real network provides latency
	}
	// Everything that reads the payload on the sender's side runs before the
	// frame is scheduled: once it is on the heap a unicast payload belongs to
	// its receiver (see Frame), who may be rewriting it already.
	if udp := n.udp.Load(); udp != nil {
		udp.transmit(f)
	}
	if tap := n.tap.Load(); tap != nil {
		(*tap)(f)
	}
	due := n.cfg.Clock.Now().Add(delay)
	// Per-link delay overrides split the fan-out across deadlines: each
	// peeled receiver is a delivery of its own on its own host's shard, and
	// of a copy of its own when the payload is a wire buffer, whose life the
	// shared delivery ends. The copies are taken first, while f is still ours.
	for i, h := range slow {
		c := f
		if f.pooled {
			buf, _ := takeWire(len(f.Payload))
			c.Payload = append(buf, f.Payload...)
		}
		n.deliver(c, h, nil, due.Add(slowExtra[i]))
	}
	if one != nil || len(many) > 0 {
		// One delivery object covers the whole receiver set (broadcast shares
		// the cached host slice), one heap insertion.
		n.deliver(f, one, many, due)
	} else {
		giveWire(f) // out of range, lost or peeled off: nobody else will
	}
	return nil
}

// Stats returns a snapshot of medium-level counters.
func (n *Network) Stats() Stats {
	return n.stats.snapshot()
}

// ResetStats zeroes the counters (used between experiment phases).
func (n *Network) ResetStats() {
	n.stats.reset()
}

// Close shuts the medium and all hosts down. Frames and timers still queued
// on the scheduler are dropped — the frames would be delivered into
// already-closed host stacks anyway — and a paced task that was queued is told
// so, so nothing is left waiting on a stream that will never finish.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	n.mu.Unlock()
	n.sched.Close()
	if udp := n.udp.Load(); udp != nil {
		udp.close()
	}
	for _, h := range hosts {
		h.Close()
	}
}

// counters holds the medium's traffic counts as atomics so concurrent
// senders never contend on a stats lock.
type counters struct {
	routingFrames atomic.Int64
	routingBytes  atomic.Int64
	dataFrames    atomic.Int64
	dataBytes     atomic.Int64
	serviceFrames atomic.Int64
	serviceBytes  atomic.Int64
	deliveries    atomic.Int64
	lost          atomic.Int64
}

func (c *counters) recordFrame(f Frame, receivers int) {
	switch f.Kind {
	case KindRouting:
		c.routingFrames.Add(1)
		c.routingBytes.Add(int64(len(f.Payload)))
	case KindService:
		c.serviceFrames.Add(1)
		c.serviceBytes.Add(int64(len(f.Payload)))
	default:
		c.dataFrames.Add(1)
		c.dataBytes.Add(int64(len(f.Payload)))
	}
	c.deliveries.Add(int64(receivers))
}

func (c *counters) snapshot() Stats {
	return Stats{
		RoutingFrames: c.routingFrames.Load(),
		RoutingBytes:  c.routingBytes.Load(),
		DataFrames:    c.dataFrames.Load(),
		DataBytes:     c.dataBytes.Load(),
		ServiceFrames: c.serviceFrames.Load(),
		ServiceBytes:  c.serviceBytes.Load(),
		Deliveries:    c.deliveries.Load(),
		Lost:          c.lost.Load(),
	}
}

func (c *counters) reset() {
	c.routingFrames.Store(0)
	c.routingBytes.Store(0)
	c.dataFrames.Store(0)
	c.dataBytes.Store(0)
	c.serviceFrames.Store(0)
	c.serviceBytes.Store(0)
	c.deliveries.Store(0)
	c.lost.Store(0)
}

// Stats counts traffic on the medium, split by frame kind — the measurement
// backing experiment E9 (discovery overhead).
type Stats struct {
	RoutingFrames int64
	RoutingBytes  int64
	DataFrames    int64
	DataBytes     int64
	ServiceFrames int64
	ServiceBytes  int64
	// Deliveries counts receiver-side frame copies (a broadcast with k
	// neighbours counts k).
	Deliveries int64
	// Lost counts copies dropped by the loss model.
	Lost int64
}

// TotalFrames returns the count of all transmitted frames.
func (s Stats) TotalFrames() int64 { return s.RoutingFrames + s.DataFrames + s.ServiceFrames }

// TotalBytes returns the byte count of all transmitted frames.
func (s Stats) TotalBytes() int64 { return s.RoutingBytes + s.DataBytes + s.ServiceBytes }
