// Package olsr implements the Optimized Link State Routing protocol
// (Clausen & Jacquet, RFC 3626) over the netem link layer: periodic HELLO
// messages for link sensing and MPR selection, TC messages flooded through
// the MPR backbone, and shortest-path route computation over the resulting
// topology. It is the proactive counterpart to AODV in the paper's system.
package olsr

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/routing"
	"siphoc/internal/wire"
)

// Config tunes protocol timing; the zero value is completed with RFC 3626
// defaults. Simulations scale the intervals down with SimConfig.
type Config struct {
	// HelloInterval is the HELLO emission period (default 2s). A silent
	// neighbour stays valid for three of them (neighborHold).
	HelloInterval time.Duration
	// TCInterval is the TC emission period (default 5s).
	TCInterval time.Duration
	// TopologyHold is how long unrefreshed topology tuples stay valid
	// (default 3×TCInterval).
	TopologyHold time.Duration
	// RouteWait is how long RequestRoute waits for convergence before
	// giving up (default 3×TCInterval).
	RouteWait time.Duration
	// MaxTTL bounds TC flooding (default 32).
	MaxTTL uint8
	// Obs records route-wait spans and latency. Nil disables.
	Obs *obs.Observer
	// Fisheye enables fisheye TC scoping (FSR-style graded refresh): TCs
	// normally carry FisheyeNearTTL so only the near zone sees every
	// refresh, and the full-MaxTTL flood is decimated to every
	// FisheyeFarEvery-th emission. Each node offsets its full-flood rounds
	// by a hash of its own ID, so the network's far floods spread evenly
	// across rounds instead of bursting in lockstep — at 1024 nodes a
	// synchronized far round is a quarter-million forwards in one beat.
	// The decimated refreshes are what buy the O(near zone) steady cost.
	// With Fisheye on, the ANSN advances only on selector-set changes (as
	// RFC 3626 specifies), which lets far nodes refresh tuple expiries
	// from decimated floods without tearing down still-valid state; and a
	// new selector set that holds for a quarter TCInterval goes out at
	// MaxTTL once, within a budget of two such change floods earned back
	// one per far period (see sendTC), so far zones learn of a change in
	// one flood, and past the budget at the far cadence.
	Fisheye bool
	// FisheyeNearTTL is the TC TTL for near-zone (decimated) emissions
	// (default 8).
	FisheyeNearTTL uint8
	// FisheyeFarEvery sends every n-th TC at full MaxTTL (default 4).
	// TopologyHold is floored at (2×FisheyeFarEvery+2)×TCInterval so
	// far-zone tuples survive a missed full flood.
	FisheyeFarEvery int
}

func (c Config) withDefaults() Config {
	if c.HelloInterval == 0 {
		c.HelloInterval = 2 * time.Second
	}
	if c.TCInterval == 0 {
		c.TCInterval = 5 * time.Second
	}
	if c.TopologyHold == 0 {
		c.TopologyHold = 3 * c.TCInterval
	}
	if c.FisheyeNearTTL == 0 {
		c.FisheyeNearTTL = 8
	}
	if c.FisheyeFarEvery <= 0 {
		c.FisheyeFarEvery = 4
	}
	if c.Fisheye {
		// Far-zone tuples are refreshed only every FisheyeFarEvery-th TC
		// round; hold them for two such periods plus slack so a single
		// late or lost far flood (timer slip under CPU saturation, a
		// dropped relay) does not expire half the topology and collapse
		// the route table network-wide.
		if min := time.Duration(2*c.FisheyeFarEvery+2) * c.TCInterval; c.TopologyHold < min {
			c.TopologyHold = min
		}
	}
	if c.RouteWait == 0 {
		c.RouteWait = 3 * c.TCInterval
	}
	if c.MaxTTL == 0 {
		c.MaxTTL = 32
	}
	return c
}

// neighborHold is how long a silent neighbour stays valid: three HELLO
// intervals, RFC 3626's NEIGHB_HOLD_TIME, so a link survives two lost HELLOs.
func (c Config) neighborHold() time.Duration { return 3 * c.HelloInterval }

// DefaultConfig returns RFC 3626 timing.
func DefaultConfig() Config { return Config{}.withDefaults() }

// SimConfig returns timing scaled for fast in-memory simulation.
func SimConfig() Config {
	return Config{
		HelloInterval: 40 * time.Millisecond,
		TCInterval:    80 * time.Millisecond,
		// Cold-start convergence of a long chain takes several
		// hello+TC rounds; give callers ample slack.
		RouteWait: 3 * time.Second,
	}.withDefaults()
}

// Stats counts protocol activity for overhead experiments.
type Stats struct {
	HelloSent int64
	TCSent    int64
	TCFwd     int64
	// Recompute counts full MPR+route rebuilds actually executed.
	Recompute int64
	// RecomputeSkipped counts scheduled rebuilds elided because the
	// link-state inputs (sym links, 2-hop sets, topology edges) hashed
	// identical to the last executed rebuild.
	RecomputeSkipped int64
}

// neighbour is one row of the neighbour table: a node this one hears (its
// link tuple), until when it has this node as its MPR, and the symmetric
// neighbourhood its HELLO advertised (its 2-hop set). Timestamps are int64
// nanoseconds rather than time.Time: a time.Time carries a *Location the GC
// must chase, and GC scanning of routing state is what this core is built to
// avoid.
type neighbour struct {
	h           uint32 // the neighbour's handle
	sym         bool
	lastHeardNs int64
	selExpNs    int64 // selector expiry, valid while selSet has h
	twoHop      bitset
}

// topoEdge is one TC-advertised out-edge of an origin: the MPR selector it
// points at (a handle), the ANSN that advertised it and its expiry.
// Pointer-free, like the other per-handle stores.
type topoEdge struct {
	expiresNs int64
	dest      uint32
	ansn      uint16
}

// dupSlots is the duplicate set's row length. An origin sends one TC per
// TCInterval and a number is held for two, so three are live at once; the
// fourth is slack for copies that arrive out of order.
const dupSlots = 4

// dupRow is one origin's row of the duplicate set (RFC 3626 §3.4): seq[k] is
// a duplicate until exp[k] (first sight + 2×TCInterval), and bit k of fwd says
// this node retransmitted it. Pointer-free, like the other stores.
type dupRow struct {
	exp [dupSlots]int64
	seq [dupSlots]uint16
	fwd uint8
}

// find returns the slot holding seq at nowNs, or -1.
func (d *dupRow) find(seq uint16, nowNs int64) int {
	for k := range d.seq {
		if d.seq[k] == seq && nowNs <= d.exp[k] {
			return k
		}
	}
	return -1
}

// add holds seq until expNs in the slot that expires first, so a full row
// evicts its oldest, and returns the slot.
func (d *dupRow) add(seq uint16, expNs int64) int {
	k := 0
	for j := 1; j < dupSlots; j++ {
		if d.exp[j] < d.exp[k] {
			k = j
		}
	}
	d.seq[k], d.exp[k] = seq, expNs
	d.fwd &^= 1 << k
	return k
}

// Protocol is an OLSR instance bound to one host. Its routing state is dense
// (DESIGN.md §15): slices and bitsets of pointer-free structs indexed by node
// handle (see netem.Handles), which the GC never scans, which iterate in
// deterministic order and which never rehash. What only a neighbour has — its
// link tuple, selector expiry and 2-hop set — is in a table sized by the
// node's degree instead.
type Protocol struct {
	host *netem.Host
	cfg  Config
	clk  clock.Clock

	net  *netem.Network // whose handle table names every node below
	self uint32         // this node's handle

	sched *clock.Scheduler
	key   string // the host's shard key

	// Stores indexed by handle. All have one length, grown to the network's
	// handle count as handles turn up in frames; a handle past it is a node
	// unknown here.
	mu      sync.Mutex
	nbs     []neighbour // the neighbour table, in handle order
	linkSet bitset      // handles with a row in nbs
	mprSet  bitset      // our chosen MPRs
	selSet  bitset      // neighbours that chose us as MPR
	// topo holds TC-advertised edges by advertising node ("last hop"), then
	// MPR selector: a TC's stale-ANSN purge touches only that origin's few
	// out-edges, which a linear scan walks faster than any map.
	topo    [][]topoEdge
	topoSet bitset   // origins with at least one stored edge
	dupRows []dupRow // the duplicate set, by TC origin
	seq     uint16
	ansn    uint16
	// The route table by destination handle, written in place by
	// recompute's BFS under mu: hops is the hop count (0: no route) and via
	// the first hop's handle.
	hops []int32
	via  []uint32
	// Pooled emission scratch: sendHello/sendTC rebuild these in place
	// every beat instead of minting fresh slices.
	helloNbs []HelloNeighbor
	helloIdx []uint32
	tcSels   []netem.NodeID
	tcIdx    []uint32 // received-TC selector indices, pooled like helloIdx
	// Fisheye state: tcCount decimates far floods, farPhase staggers this
	// node's full-flood rounds against its peers', selHash/selInit detect
	// selector-set changes (order-independent set hash) for ANSN advance.
	// floodOwed says the set advertised has not yet gone out at MaxTTL, and
	// is news to the far zone; farEdges, that the far zone holds edges of
	// ours, from our last MaxTTL TC. floodNs budgets the change floods (see
	// sendTC): it is when the budget is full again, and a change flood may
	// go while it lies at most one far period ahead.
	tcCount   uint64
	farPhase  uint64
	selHash   uint64
	selInit   bool
	floodOwed bool
	farEdges  bool
	floodNs   int64
	pb        routing.PiggybackHandler
	framer    routing.Framer
	stats     Stats
	started   bool
	// recomputeHold marks the coalescing hold-down window after a
	// recompute; recomputeQueued marks arrivals during the window that
	// still need one trailing recompute.
	recomputeHold   bool
	recomputeQueued bool
	// stateHash is the order-independent hash of the link-state inputs at
	// the last executed rebuild; recompute skips the work while it holds.
	stateHash uint64
	// advertisedNs is when receivers drop our last TC's edges, or, with
	// Fisheye, when the empty TCs that withdraw them are done (see sendTC);
	// emptyTCs counts the empty TCs sent since the selector set emptied.
	advertisedNs int64
	emptyTCs     int

	// The two emission beats, run by one task (beats), and the task that
	// ends a hold-down window; both tasks are bound once and re-armed with
	// At. A moved beat runs on a tick: epoch (Start) plus a whole number of
	// quarter HELLO intervals.
	hello, tc   beat
	beats, hold clock.Task
	epoch       time.Time
	tick        time.Duration

	// The RequestRoute waits, in deadline order, and the task queued at the
	// first one's deadline; a recompute that installs a wait's route ends it.
	waits   []routeWait
	waitEnd clock.Task

	// Pre-resolved obs handles; nil when cfg.Obs is nil.
	obs      *obs.Observer
	obsDelay *obs.Histogram
}

var _ routing.Protocol = (*Protocol)(nil)

// New creates an OLSR instance for host. Call Start to begin operation.
func New(host *netem.Host, cfg Config) *Protocol {
	cfg = cfg.withDefaults()
	p := &Protocol{
		host:  host,
		cfg:   cfg,
		clk:   host.Clock(),
		sched: host.Sched(),
		key:   string(host.ID()),
		net:   host.Network(),
		self:  host.Handle(),
	}
	p.hello.interval, p.tc.interval = cfg.HelloInterval, cfg.TCInterval
	p.tick = max(cfg.HelloInterval/4, 1)
	p.beats.Init(p.runBeats, nil)
	p.hold.Init(p.holdTick, nil)
	p.waitEnd.Init(p.expireWaits, nil)
	// Spread this node's full-TTL fisheye rounds against its peers' by
	// hashing its own ID: nodes brought up together would otherwise emit
	// their far floods in lockstep every FisheyeFarEvery-th round.
	p.farPhase = phaseHash(host.ID()) % uint64(cfg.FisheyeFarEvery)
	if cfg.Obs.Enabled() {
		p.obs = cfg.Obs
		p.obsDelay = cfg.Obs.Histogram("olsr.routewait.delay", nil)
	}
	return p
}

// growTo extends every per-handle store to n handles, under p.mu. The first
// sizing is exact (a network is normally built before its first frame); later
// growth is append's, amortized O(1) per node.
func (p *Protocol) growTo(n int) {
	if n > len(p.hops) {
		p.topo = extend(p.topo, n)
		p.dupRows = extend(p.dupRows, n)
		p.hops = extend(p.hops, n)
		p.via = extend(p.via, n)
		p.linkSet.grow(n)
		p.selSet.grow(n)
		p.topoSet.grow(n)
	}
}

// extend returns s grown to n elements, the new ones zero: made to size the
// first time, by append after.
func extend[T any](s []T, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	return append(s, make([]T, n-len(s))...)
}

// internBytes returns the handle of the ID in b, interned on first sight and
// covered by the stores. Under p.mu.
func (p *Protocol) internBytes(b []byte) uint32 {
	if h, ok := p.net.Handles().LookupBytes(b); ok {
		return p.cover(h)
	}
	return p.cover(p.net.Intern(netem.NodeID(b)))
}

// cover returns h, growing the stores to the network's handle count first if
// h is past them.
func (p *Protocol) cover(h uint32) uint32 {
	if int(h) >= len(p.hops) {
		p.growTo(p.net.Handles().Len())
	}
	return h
}

// known returns id's handle if this instance's stores cover it.
func (p *Protocol) known(id netem.NodeID) (uint32, bool) {
	h, ok := p.net.Handles().Lookup(id)
	return h, ok && int(h) < len(p.hops)
}

// neighbour returns h's row in the neighbour table, or nil. Under p.mu.
func (p *Protocol) neighbour(h uint32) *neighbour {
	if !p.linkSet.has(h) {
		return nil
	}
	i, _ := slices.BinarySearchFunc(p.nbs, h, byHandle)
	return &p.nbs[i]
}

func byHandle(nb neighbour, h uint32) int { return cmp.Compare(nb.h, h) }

// Name implements routing.Protocol.
func (p *Protocol) Name() string { return "OLSR" }

// SetPiggyback implements routing.Protocol.
func (p *Protocol) SetPiggyback(h routing.PiggybackHandler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pb = h
}

// Start implements routing.Protocol.
func (p *Protocol) Start() error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("olsr: already started")
	}
	p.started = true
	now := p.clk.Now()
	// The ticks count from here, and sendHello below runs the first HELLO.
	p.epoch = now
	p.hello.due = now
	p.tc.due = now.Add(p.tc.interval)
	p.mu.Unlock()
	if err := p.host.HandleFrames(netem.KindRouting, p.onFrame); err != nil {
		return err
	}
	p.host.SetRouteProvider(p)
	// The first HELLO goes out here, on the caller's goroutine, and arms the
	// beats: nodes brought up one after another are heard in that order, and
	// a neighbour that hears this one answers on its next tick (trigger), not
	// a whole beat later.
	p.sendHello()
	return nil
}

// Stop implements routing.Protocol. It takes the beats, the hold-down and
// the route waits' task off the queue (a run already under way queues no
// other) and fails every route wait.
func (p *Protocol) Stop() {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return
	}
	p.started = false
	p.recomputeHold, p.recomputeQueued = false, false
	p.sched.Cancel(p.key, &p.beats)
	p.sched.Cancel(p.key, &p.hold)
	p.sched.Cancel(p.key, &p.waitEnd)
	waits := p.waits
	p.waits = nil
	p.mu.Unlock()
	for _, w := range waits {
		p.endWait(w, false, " stopped")
	}
}

// beat is one of the two emission beats, HELLO and TC. It keeps its
// interval's cadence from its last run, and a change to what its next message
// says moves it earlier (trigger).
type beat struct {
	interval time.Duration
	due      time.Time // the next run
	last     time.Time // the last run
}

// runBeats is the beats task: the HELLO beat if it is due, then the TC beat
// if it is due. One task runs both, so a beat that moves the other (expire
// moves the TC beat) does so in one order on every run.
func (p *Protocol) runBeats(now time.Time) {
	p.mu.Lock()
	hello, tc := !p.hello.due.After(now), !p.tc.due.After(now)
	p.mu.Unlock()
	if hello {
		p.expire()
		p.sendHello()
	}
	if tc {
		p.sendTC()
	}
}

// ran records that b ran at now and queues its next run one interval on.
// Under p.mu.
func (p *Protocol) ran(b *beat, now time.Time) {
	b.last, b.due = now, now.Add(b.interval)
	p.armBeats()
}

// armBeats queues the beats task for the earlier beat while the protocol
// runs: a run that began before Stop queues no other. Under p.mu.
func (p *Protocol) armBeats() {
	if p.started {
		p.sched.At(p.key, &p.beats, minTime(p.hello.due, p.tc.due))
	}
}

// trigger moves b earlier because what its next message would say has
// changed: to the first tick after now that is a quarter interval or more
// after b last ran. RFC 3626 §9.3 allows the early TC; the quarter is the
// minimum interval RFC 6130 proposes for HELLOs and RFC 7181 for TCs.
//
// So a moved beat never runs in the instant of the change, and every trigger
// of one instant moves it to the same tick. On a fake clock every run of
// either beat falls on a tick (when both intervals are whole numbers of
// ticks, as the defaults and every configuration here are), and a frame
// arrives on one only if its delay is a whole number of ticks. So what a node
// sends does not depend on the order in which the changes of one instant
// reached it, which on several shards is the host's (DESIGN.md §11.1). Under
// p.mu.
func (p *Protocol) trigger(b *beat, now time.Time) {
	if !p.started {
		return
	}
	from := now.Add(1)
	if q := b.last.Add(b.interval / 4); q.After(from) {
		from = q
	}
	if due := p.tickAt(from, 0); due.Before(b.due) {
		b.due = due
		p.armBeats()
	}
}

// tickAt returns the first instant at or after t that lies off past one of
// the node's ticks.
func (p *Protocol) tickAt(t time.Time, off time.Duration) time.Time {
	d := max(t.Sub(p.epoch)-off, 0)
	return p.epoch.Add(off + (d+p.tick-1)/p.tick*p.tick)
}

// minTime returns the earlier of a and b.
func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

// Stats returns a snapshot of protocol counters.
func (p *Protocol) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Routes implements routing.Protocol: the table as rows, built on request in
// the destinations' lexical order.
func (p *Protocol) Routes() []routing.Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := p.net.Handles()
	out := make([]routing.Entry, 0, len(p.hops))
	for i, hops := range p.hops {
		if hops > 0 {
			out = append(out, routing.Entry{Dst: ids.ID(uint32(i)), NextHop: ids.ID(p.via[i]), Hops: int(hops)})
		}
	}
	slices.SortFunc(out, func(a, b routing.Entry) int { return cmp.Compare(a.Dst, b.Dst) })
	return out
}

// NextHop implements netem.RouteProvider: a handle-table probe and two array
// reads, and no clock, since proactive routes do not expire.
func (p *Protocol) NextHop(dst netem.NodeID) (netem.NodeID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.known(dst)
	if !ok || p.hops[i] == 0 {
		return "", false
	}
	return p.net.Handles().ID(p.via[i]), true
}

// RequestRoute implements netem.RouteProvider. OLSR is proactive: either the
// table already converged and contains dst, or we wait for convergence (e.g.
// right after startup or a topology change): until the recompute that
// installs the route, or RouteWait.
func (p *Protocol) RequestRoute(dst netem.NodeID, done func(bool)) {
	p.mu.Lock()
	if i, ok := p.known(dst); ok && p.hops[i] > 0 {
		p.mu.Unlock()
		done(true)
		return
	}
	if !p.started {
		p.mu.Unlock()
		done(false)
		return
	}
	now := p.clk.Now()
	w := routeWait{dst: dst, done: done, start: now, deadline: now.Add(p.cfg.RouteWait),
		span: p.obs.StartSpan("", obs.PhaseRouteDiscovery, string(p.host.ID()))}
	p.waits = append(p.waits, w)
	if len(p.waits) == 1 {
		p.sched.At(p.key, &p.waitEnd, w.deadline)
	}
	p.mu.Unlock()
}

// routeWait is one RequestRoute convergence wait.
type routeWait struct {
	dst             netem.NodeID
	done            func(bool)
	start, deadline time.Time
	span            obs.SpanHandle
}

// wakeWaits ends every route wait whose destination the table now has.
func (p *Protocol) wakeWaits() {
	for {
		p.mu.Lock()
		k := -1
		for j, w := range p.waits {
			if i, ok := p.known(w.dst); ok && p.hops[i] > 0 {
				k = j
				break
			}
		}
		if k < 0 {
			p.mu.Unlock()
			return
		}
		w := p.waits[k]
		p.waits = slices.Delete(p.waits, k, k+1)
		if len(p.waits) == 0 {
			p.sched.Cancel(p.key, &p.waitEnd)
		}
		p.mu.Unlock()
		p.endWait(w, true, " ok")
	}
}

// expireWaits is the waits' task: it fails the waits whose deadline has
// passed and queues itself for the next.
func (p *Protocol) expireWaits(now time.Time) {
	for {
		p.mu.Lock()
		if len(p.waits) == 0 || p.waits[0].deadline.After(now) {
			if len(p.waits) > 0 && p.started {
				p.sched.At(p.key, &p.waitEnd, p.waits[0].deadline)
			}
			p.mu.Unlock()
			return
		}
		w := p.waits[0]
		p.waits = slices.Delete(p.waits, 0, 1)
		p.mu.Unlock()
		p.endWait(w, false, " timeout")
	}
}

// endWait reports a wait's outcome to its caller and its span.
func (p *Protocol) endWait(w routeWait, ok bool, outcome string) {
	if w.span.Active() {
		if ok {
			p.obsDelay.Observe(p.clk.Now().Sub(w.start))
		}
		w.span.End("olsr dst=" + string(w.dst) + outcome)
	}
	w.done(ok)
}

// MPRs returns the currently selected multipoint relays (diagnostics).
func (p *Protocol) MPRs() []netem.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]netem.NodeID, 0, p.mprSet.count())
	ids := p.net.Handles()
	p.mprSet.forEach(func(i uint32) {
		out = append(out, ids.ID(i))
	})
	return out
}

func (p *Protocol) onFrame(f netem.Frame) {
	var env routing.Envelope
	if err := routing.ParseEnvelopeInto(&env, f.Payload); err != nil || env.Proto != routing.ProtoOLSR {
		return
	}
	if len(env.Ext) > 0 {
		p.mu.Lock()
		pb := p.pb
		p.mu.Unlock()
		if pb != nil {
			pb.Incoming(routing.Incoming{
				From:  f.Src,
				Proto: env.Proto,
				Kind:  env.Kind,
				Kind2: KindName(env.Kind),
				Ext:   env.Ext,
			})
		}
	}
	// Bodies are handled straight off the wire bytes (handleHello/handleTC),
	// never decoded into message structs: a converged grid's receive rate is
	// degree×HELLO plus the TC flood, and decoding each copy into a fresh
	// struct with one string per node reference made the parse path the
	// system's largest steady-state allocation site. FuzzHandleHello and
	// FuzzHandleTC hold the two to what the bodies advertise.
	switch env.Kind {
	case KindHello:
		p.handleHello(f.Src, env.Body)
	case KindTC:
		p.handleTC(f.Src, env.Body)
	}
}

// handleHello processes a HELLO body straight off the wire. Node references
// resolve against the handle table by raw bytes, so a steady-state arrival
// (all nodes known, advertised neighbourhood unchanged) performs zero
// allocations — no message struct, no per-neighbour string.
func (p *Protocol) handleHello(from netem.NodeID, body []byte) {
	// Validate the framing before touching state: the streaming walk below
	// mutates as it reads, and a truncated HELLO must stay a no-op.
	v := wire.NewReader(body)
	n := int(v.U16())
	for range n {
		v.StringBytes()
		v.U8()
		v.U8()
	}
	if v.Err() != nil {
		return
	}
	now := p.clk.Now()
	nowNs := now.UnixNano()
	self := string(p.host.ID())
	p.mu.Lock()
	fi := p.cover(p.net.Intern(from))
	// changed dirties the route state; heard (a new link, or one whose
	// symmetry flipped) and selected (a new MPR selector) change what this
	// node's next HELLO and TC say, and move those beats earlier.
	changed, heard, selected := false, false, false
	nb := p.neighbour(fi) // stays valid: only growTo runs before the last use
	if nb == nil {
		i, _ := slices.BinarySearchFunc(p.nbs, fi, byHandle)
		p.nbs = slices.Insert(p.nbs, i, neighbour{h: fi})
		p.linkSet.set(fi)
		nb, changed, heard = &p.nbs[i], true, true
	}
	nb.lastHeardNs = nowNs
	// One walk does link sensing and change detection: the link is
	// symmetric once the neighbour lists us, and the advertised symmetric
	// neighbourhood is compared against the stored 2-hop bitset
	// (lookup-only, no interning) so an unchanged arrival rebuilds nothing
	// and schedules no recompute.
	ids := p.net.Handles()
	sym := false
	old := nb.twoHop
	matched := 0
	same := true
	r := wire.NewReader(body)
	r.U16()
	for range n {
		ab := r.StringBytes()
		link := r.U8()
		mpr := r.U8() == 1
		if string(ab) == self {
			sym = true
			if mpr {
				selected = !p.selSet.has(fi)
				p.selSet.set(fi)
				nb.selExpNs = nowNs + int64(p.cfg.neighborHold())
			}
			continue
		}
		if link != LinkSym {
			continue
		}
		ni, known := ids.LookupBytes(ab)
		if !known || !old.has(ni) {
			same = false
			continue
		}
		matched++
	}
	if same && matched != old.count() {
		same = false
	}
	if sym != nb.sym {
		nb.sym = sym
		changed, heard = true, true
	}
	if !same {
		// Intern every advertised neighbour into scratch first, then rebuild
		// the 2-hop set in place.
		r = wire.NewReader(body)
		r.U16()
		p.helloIdx = p.helloIdx[:0]
		for range n {
			ab := r.StringBytes()
			link := r.U8()
			r.U8()
			if string(ab) == self || link != LinkSym {
				continue
			}
			p.helloIdx = append(p.helloIdx, p.internBytes(ab))
		}
		nb.twoHop.reset()
		for _, ni := range p.helloIdx {
			nb.twoHop.set(ni)
		}
		changed = true
	}
	if heard {
		p.trigger(&p.hello, now)
	}
	if selected {
		p.trigger(&p.tc, now)
	}
	p.mu.Unlock()
	if changed {
		p.scheduleRecompute()
	}
}

// handleTC processes a TC body straight off the wire, mirroring handleHello:
// origin and selectors resolve against the handle table by raw bytes (zero
// allocations once the nodes are known), and the MPR retransmission copies the
// received body into its own frame and patches the TTL byte there instead of
// re-marshalling. body is only lent (see netem.Frame) and is not written to.
func (p *Protocol) handleTC(from netem.NodeID, body []byte) {
	r := wire.NewReader(body)
	origB := r.StringBytes()
	seq := r.U16()
	ansn := r.U16()
	// Offset of the TTL byte within body: the forward path patches it in its
	// copy of the received bytes rather than rebuilding the message.
	ttlOff := 2 + len(origB) + 4
	ttl := r.U8()
	n := int(r.U16())
	for range n {
		r.StringBytes()
	}
	if r.Err() != nil {
		return
	}
	nowNs := p.clk.Now().UnixNano()
	if string(origB) == string(p.host.ID()) {
		return
	}
	p.mu.Lock()
	oi := p.internBytes(origB)
	d := &p.dupRows[oi] // not used past the selectors' interning, which may move dupRows
	k := d.find(seq, nowNs)
	dup := k >= 0
	// RFC 3626 duplicate handling: the tuples are processed on the first
	// copy, but any copy from an MPR selector may trigger the one
	// retransmission, since the first often comes from a neighbour that did
	// not select us.
	fi, known := p.known(from)
	doFwd := known && p.selSet.has(fi) && ttl > 1 && !(dup && d.fwd&(1<<k) != 0)
	if dup && !doFwd {
		p.mu.Unlock()
		return
	}
	if !dup {
		// Two TC intervals cover any copy still in flight once its seq is
		// superseded.
		k = d.add(seq, nowNs+2*int64(p.cfg.TCInterval))
	}
	var pb routing.PiggybackHandler
	if doFwd {
		d.fwd |= 1 << k
		p.stats.TCFwd++
		pb = p.pb
	}
	// Install/refresh the advertised tuples first, then purge whatever the
	// new ANSN no longer advertises. Only an edge appearing or vanishing
	// dirties the route state; a periodic TC re-advertising the same
	// selector set merely refreshes expiries and schedules nothing.
	changed := false
	if !dup {
		// Re-walk the selector list off the wire bytes, interning into the
		// pooled index scratch; known selectors cost a map probe each.
		r = wire.NewReader(body)
		r.StringBytes()
		r.U16()
		r.U16()
		r.U8()
		r.U16()
		p.tcIdx = p.tcIdx[:0]
		for range n {
			p.tcIdx = append(p.tcIdx, p.internBytes(r.StringBytes()))
		}
		edges := p.topo[oi]
		expNs := nowNs + int64(p.cfg.TopologyHold)
		for _, si := range p.tcIdx {
			k := 0
			for ; k < len(edges); k++ {
				if edges[k].dest == si {
					break
				}
			}
			if k == len(edges) {
				edges = append(edges, topoEdge{dest: si, ansn: ansn, expiresNs: expNs})
				changed = true
				continue
			}
			if !ansnOlder(ansn, edges[k].ansn) {
				// A refresh of a tuple that already time-expired is a
				// real change: rebuilds between expiry and this refresh
				// excluded the edge, so reviving it must dirty the route
				// state even though the edge never left the store.
				if nowNs > edges[k].expiresNs {
					changed = true
				}
				edges[k].ansn = ansn
				edges[k].expiresNs = expNs
			}
		}
		kept := edges[:0]
		for k := range edges {
			if ansnOlder(edges[k].ansn, ansn) {
				changed = true
				continue
			}
			kept = append(kept, edges[k])
		}
		p.topo[oi] = kept
		if len(kept) == 0 {
			p.topoSet.unset(oi)
		} else {
			p.topoSet.set(oi)
		}
	}
	p.mu.Unlock()
	if changed {
		p.scheduleRecompute()
	}

	if doFwd {
		// Retransmit the received bytes with the TTL decremented. Here and on
		// the beats, a frame the medium refuses is a lost frame.
		frame := append(p.framer.Begin(routing.ProtoOLSR, KindTC), body...)
		frame[routing.HeaderLen+ttlOff]--
		_ = p.framer.Send(p.host, pb, netem.Broadcast, KindName(KindTC), frame)
	}
}

// ansnOlder reports whether a is older than b with 16-bit wraparound.
func ansnOlder(a, b uint16) bool {
	return a != b && int16(a-b) < 0
}

// sendHello sends this node's HELLO and, while the protocol runs, queues the
// next one an interval on.
func (p *Protocol) sendHello() {
	now := p.clk.Now()
	p.mu.Lock()
	p.ran(&p.hello, now)
	ids := p.net.Handles()
	p.helloNbs = p.helloNbs[:0]
	for _, nb := range p.nbs {
		link := LinkAsym
		if nb.sym {
			link = LinkSym
		}
		p.helloNbs = append(p.helloNbs, HelloNeighbor{
			Addr: ids.ID(nb.h),
			Link: link,
			MPR:  p.mprSet.has(nb.h),
		})
	}
	m := Hello{Neighbors: p.helloNbs}
	frame := m.AppendTo(p.framer.Begin(routing.ProtoOLSR, KindHello)) // under mu: Neighbors aliases pooled scratch
	p.stats.HelloSent++
	pb := p.pb
	p.mu.Unlock()
	_ = p.framer.Send(p.host, pb, netem.Broadcast, KindName(KindHello), frame)
}

// sendTC sends this node's TC, if it is anyone's MPR, and, while the protocol
// runs, queues the next run an interval on. One no longer an MPR sends empty
// TCs, which drop the edges it advertised, while receivers hold them (RFC 3626
// §9.3): three TCs at the default TopologyHold. Fisheye floors that hold at
// 2×FisheyeFarEvery+2 TCs, so there it stops sooner: after two, once the far
// zone holds no edges of ours (one at MaxTTL took them away, or none went),
// which gives the near zone a copy to spare.
func (p *Protocol) sendTC() {
	now := p.clk.Now()
	nowNs := now.UnixNano()
	p.mu.Lock()
	p.ran(&p.tc, now)
	if !p.selSet.empty() {
		p.advertisedNs = nowNs + int64(p.cfg.TopologyHold)
		p.emptyTCs = 0
	} else if nowNs >= p.advertisedNs {
		p.mu.Unlock()
		return // only MPRs advertise topology
	}
	p.seq++
	m := TC{Orig: p.host.ID(), Seq: p.seq, TTL: p.cfg.MaxTTL}
	ids := p.net.Handles()
	p.tcSels = p.tcSels[:0]
	var selHash uint64
	p.selSet.forEach(func(i uint32) {
		p.tcSels = append(p.tcSels, ids.ID(i))
		selHash += mix64(hashSel, i, 0)
	})
	m.Selectors = p.tcSels
	if p.cfg.Fisheye {
		// ANSN advances only when the advertised set actually changes (the
		// RFC 3626 rule). Receivers then refresh expiries from decimated
		// near-zone floods at the same ANSN.
		empty := p.selSet.empty()
		changed := !p.selInit || selHash != p.selHash
		if changed {
			p.selInit = true
			p.selHash = selHash
			p.ansn++
			p.floodOwed = !empty || p.farEdges
		}
		p.tcCount++
		full := p.tcCount%uint64(p.cfg.FisheyeFarEvery) == p.farPhase || p.cfg.FisheyeNearTTL >= p.cfg.MaxTTL
		// A new set reaches the far zone in one flood rather than at the
		// next phased one, up to FisheyeFarEvery TCs away: the TC that
		// carries it goes to the near zone and moves the next TC a quarter
		// interval on, and if the set still holds then, that TC goes out at
		// MaxTTL. A set that changes again first is not worth a flood, and
		// bring-up makes many such (DESIGN.md §11.1). The floods are
		// budgeted, two held and one earned back per far period:
		// unbounded, they are a self-amplifying storm at 1024 nodes (load
		// delays HELLOs, links flap, every flap floods in full; DESIGN.md
		// §13.5). So under any churn a node floods in full at most the
		// phased floods plus two, plus one per far period, and at rest,
		// where the set does not change, exactly the phased ones.
		period := int64(p.cfg.FisheyeFarEvery) * int64(p.cfg.TCInterval)
		switch {
		case full:
		case changed:
			if p.floodOwed && p.floodNs-nowNs <= period {
				p.trigger(&p.tc, now)
			}
		case p.floodOwed && p.floodNs-nowNs <= period:
			p.floodNs = max(p.floodNs, nowNs) + period
			full = true
		}
		if full {
			p.floodOwed, p.farEdges = false, !empty
		} else {
			m.TTL = p.cfg.FisheyeNearTTL
		}
		if empty {
			p.emptyTCs++
			if p.emptyTCs >= 2 && !p.farEdges {
				p.advertisedNs = nowNs // withdrawn in both zones: the last empty TC
			}
		}
	} else {
		p.ansn++
	}
	m.ANSN = p.ansn
	frame := m.AppendTo(p.framer.Begin(routing.ProtoOLSR, KindTC)) // under mu: Selectors aliases pooled scratch
	p.stats.TCSent++
	pb := p.pb
	p.mu.Unlock()
	_ = p.framer.Send(p.host, pb, netem.Broadcast, KindName(KindTC), frame)
}

// expire drops stale links, selectors and topology tuples.
//
// A lost link changes what the next HELLO says, but expire runs on the HELLO
// beat, which sends next; a lost selector moves the TC beat earlier.
func (p *Protocol) expire() {
	now := p.clk.Now()
	nowNs := now.UnixNano()
	holdNs := int64(p.cfg.neighborHold())
	changed := false
	p.mu.Lock()
	for i := 0; i < len(p.nbs); {
		nb := p.nbs[i]
		if nowNs > nb.selExpNs && p.selSet.has(nb.h) {
			// Never after the link expires: both are held neighborHold from
			// the HELLO that refreshed them, and the link by every HELLO.
			p.selSet.unset(nb.h)
			p.trigger(&p.tc, now)
		}
		if nowNs-nb.lastHeardNs > holdNs {
			p.linkSet.unset(nb.h)
			p.nbs = slices.Delete(p.nbs, i, i+1)
			changed = true
			continue
		}
		i++
	}
	p.topoSet.forEach(func(oi uint32) {
		edges := p.topo[oi]
		kept := edges[:0]
		for k := range edges {
			if nowNs > edges[k].expiresNs {
				changed = true
				continue
			}
			kept = append(kept, edges[k])
		}
		p.topo[oi] = kept
		if len(kept) == 0 {
			p.topoSet.unset(oi)
		}
	})
	p.mu.Unlock()
	if changed {
		p.recompute()
	}
}

// scheduleRecompute coalesces route recomputation: a full greedy-MPR +
// route rebuild used to run on every single HELLO/TC arrival, which is
// O(messages) work per interval in dense networks. The first arrival opens a
// hold-down window and recomputes in the instant after its own, with every
// arrival of that instant folded in, so the rebuild does not depend on the
// order in which they came. Arrivals during the window are folded into one
// trailing recompute on the node's next half tick, midway between two ticks:
// after the frames a tick's sends set off have arrived, and before the beats
// of the next tick read what the rebuild chose. A node therefore rebuilds at
// most once a tick while changes keep coming, regardless of neighbour count.
// The window's end is one bound task (hold), re-armed for each window.
func (p *Protocol) scheduleRecompute() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return
	}
	p.recomputeQueued = true
	if !p.recomputeHold {
		p.recomputeHold = true
		p.sched.At(p.key, &p.hold, p.clk.Now().Add(time.Nanosecond))
	}
}

// holdTick runs the recompute owed to the arrivals folded into the window
// and holds the window open until the next half tick, or, with none, closes
// it.
func (p *Protocol) holdTick(now time.Time) {
	p.mu.Lock()
	queued := p.recomputeQueued && p.started
	p.recomputeQueued, p.recomputeHold = false, queued
	if queued {
		p.sched.At(p.key, &p.hold, p.tickAt(now.Add(1), p.tick/2))
	}
	p.mu.Unlock()
	if queued {
		p.recompute()
	}
}

// phaseHash is an FNV-1a digest of a node ID, used once at construction to
// stagger this node's fisheye far-flood phase against its peers'. (It
// reproduces the digest the retired string-keyed hashEdge produced for the
// same input, so committed far-flood schedules — and the benchmarks shaped
// by them — carry over unchanged.)
func phaseHash(id netem.NodeID) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h ^= uint64(hashSel)
	h *= prime
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	return h
}

// Element kinds for mix64.
const (
	hashLink byte = 1 // symmetric 1-hop link
	hashTwo  byte = 2 // 2-hop edge (neighbour -> its neighbour)
	hashTopo byte = 3 // TC-advertised topology edge
	hashSel  byte = 4 // MPR selector (fisheye set-change detection)
)

// inputHashLocked digests everything the MPR selection and BFS read: the
// symmetric link set, the 2-hop sets and the live topology edges. Expiry
// timestamps are deliberately excluded — refreshes that keep the same edge
// set do not change the computed routes. A handle never changes, so
// handle-based element hashes stay comparable across the instance's lifetime.
func (p *Protocol) inputHashLocked(nowNs int64) uint64 {
	var h uint64
	for _, nb := range p.nbs {
		if nb.sym {
			h += mix64(hashLink, nb.h, 0)
		}
		nb.twoHop.forEach(func(two uint32) {
			h += mix64(hashTwo, nb.h, two)
		})
	}
	p.topoSet.forEach(func(oi uint32) {
		for _, e := range p.topo[oi] {
			if nowNs > e.expiresNs {
				continue
			}
			h += mix64(hashTopo, oi, e.dest)
		}
	})
	return h
}

// recompute rebuilds MPRs and routes unless the link-state inputs hash
// identical to the last executed rebuild (the steady-state case: periodic
// HELLO/TC refreshes that change nothing), then ends the route waits whose
// destination it installed.
func (p *Protocol) recompute() {
	p.recomputeImpl(false)
	p.wakeWaits()
}

// recomputeFull forces the rebuild even on unchanged inputs — the reference
// path the incremental-vs-full golden equivalence test compares against.
func (p *Protocol) recomputeFull() { p.recomputeImpl(true) }

// recomputeImpl reselects MPRs and rebuilds the route table (greedy MPR
// cover + BFS shortest paths over 1-hop links and TC-advertised edges). The
// traversal is deterministic — neighbour lists are expanded in lexical node
// order (via the handle table's ranks) — so identical inputs always produce
// a bit-identical table. The working memory is a scratch off the shared free
// list, held for this rebuild only, and the BFS writes the table itself (hops,
// via) in place.
func (p *Protocol) recomputeImpl(force bool) {
	now := p.clk.Now()
	nowNs := now.UnixNano()
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.inputHashLocked(nowNs)
	if !force && h == p.stateHash {
		p.stats.RecomputeSkipped++
		return
	}
	p.stateHash = h
	p.stats.Recompute++
	n := len(p.hops)
	s := scratchFree.Take()
	if s == nil {
		s = new(recomputeScratch)
	}
	defer scratchFree.Put(s)
	ids := p.net.Handles() // ranks every handle the stores hold
	rank := func(a, b uint32) int { return int(ids.Rank(a)) - int(ids.Rank(b)) }

	// Symmetric neighbours in lexical order: the BFS start order — and
	// therefore next-hop tie-breaks between equal-length paths — matches
	// the string-sorted traversal of the map-backed core bit for bit.
	s.symNbs = s.symNbs[:0]
	for i, nb := range p.nbs {
		if nb.sym {
			s.symNbs = append(s.symNbs, i)
		}
	}
	slices.SortFunc(s.symNbs, func(a, b int) int { return rank(p.nbs[a].h, p.nbs[b].h) })

	// --- MPR selection: greedy cover of the 2-hop neighbourhood.
	s.uncovered.reset()
	for _, i := range s.symNbs {
		p.nbs[i].twoHop.forEach(func(two uint32) {
			if two == p.self {
				return
			}
			if nb := p.neighbour(two); nb != nil && nb.sym {
				return // reachable in one hop anyway
			}
			s.uncovered.set(two)
		})
	}
	s.mprNew.reset()
	for !s.uncovered.empty() {
		var best *neighbour
		bestCover := 0
		for _, i := range s.symNbs {
			nb := &p.nbs[i]
			if s.mprNew.has(nb.h) {
				continue
			}
			cover := nb.twoHop.andCount(s.uncovered)
			if cover > bestCover || (cover == bestCover && cover > 0 && (best == nil || rank(nb.h, best.h) < 0)) {
				best, bestCover = nb, cover
			}
		}
		if bestCover == 0 {
			break // remaining 2-hop nodes are not coverable
		}
		s.mprNew.set(best.h)
		s.uncovered.andNot(best.twoHop)
	}
	// Swap the freshly built set into place; the displaced one goes back with
	// the scratch. A new MPR set changes what the next HELLO says.
	p.mprSet, s.mprNew = s.mprNew, p.mprSet
	if !p.mprSet.equal(s.mprNew) {
		p.trigger(&p.hello, now)
	}

	// --- Route computation: BFS over sym links + topology edges, straight
	// into the route table (hops doubles as the visited set), under mu so no
	// reader sees it half built.
	clear(p.hops)
	s.queue = s.queue[:0]
	for _, i := range s.symNbs {
		nb := p.nbs[i].h
		p.hops[nb] = 1
		p.via[nb] = nb
		s.queue = append(s.queue, nb)
	}
	// Adjacency from TC tuples: last -> dest (treated as bidirectional,
	// since a TC edge reflects a symmetric MPR-selector link). Lists are
	// truncated in place and refilled — no per-rebuild minting.
	s.adj = extend(s.adj, max(n, len(s.adj)))
	for i := range s.adj[:n] {
		s.adj[i] = s.adj[i][:0]
	}
	p.topoSet.forEach(func(oi uint32) {
		for _, e := range p.topo[oi] {
			if nowNs > e.expiresNs {
				continue
			}
			s.adj[oi] = append(s.adj[oi], e.dest)
			s.adj[e.dest] = append(s.adj[e.dest], oi)
		}
	})
	// Also 2-hop sets give edges nb -> two.
	for _, nb := range p.nbs {
		nb.twoHop.forEach(func(two uint32) {
			s.adj[nb.h] = append(s.adj[nb.h], two)
		})
	}
	for i := range s.adj[:n] {
		if len(s.adj[i]) > 1 {
			slices.SortFunc(s.adj[i], rank)
		}
	}
	for head := 0; head < len(s.queue); head++ {
		cur := s.queue[head]
		curVia, curHops := p.via[cur], p.hops[cur]
		for _, nxt := range s.adj[cur] {
			if nxt == p.self || p.hops[nxt] != 0 {
				continue
			}
			p.hops[nxt] = curHops + 1
			p.via[nxt] = curVia
			s.queue = append(s.queue, nxt)
		}
	}
}
