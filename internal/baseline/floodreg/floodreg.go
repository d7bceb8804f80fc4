// Package floodreg implements the REGISTER-flooding baseline for
// decentralized SIP in MANETs (Leggio et al., "Session initiation protocol
// deployment in ad-hoc networks: a decentralized approach", IWWAN 2005 —
// reference [12] of the paper): every node periodically floods its SIP
// bindings through the whole network so that lookups are always local. The
// paper criticizes the approach as inefficient and SIP-incompatible; this
// implementation exists to quantify that claim in experiment E9.
package floodreg

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/wire"
)

// Config tunes the agent.
type Config struct {
	// Interval is the re-flood period (default 1s; the original proposal
	// floods on registration and refresh).
	Interval time.Duration
}

// A learned binding stays valid for bindingIntervals flood intervals, and a
// flood travels at most floodHops hops.
const (
	bindingIntervals = 3
	floodHops        = 16
)

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	return c
}

// Stats counts agent activity.
type Stats struct {
	FloodsOriginated int64
	FloodsRelayed    int64
	BindingsLearned  int64
}

type binding struct {
	addr    string
	origin  netem.NodeID
	seq     uint32
	expires time.Time
}

// Agent is one node's flooding registrar.
type Agent struct {
	host *netem.Host
	cfg  Config
	clk  clock.Clock

	mu      sync.Mutex
	local   map[string]string // AOR -> contact addr
	learned map[string]binding
	seq     uint32
	seen    map[seenKey]time.Time
	stats   Stats
	started bool
	closed  bool
	beat    *clock.Task
}

type seenKey struct {
	origin netem.NodeID
	seq    uint32
}

// New creates the agent.
func New(host *netem.Host, cfg Config) *Agent {
	cfg = cfg.withDefaults()
	return &Agent{
		host:    host,
		cfg:     cfg,
		clk:     host.Clock(),
		local:   make(map[string]string),
		learned: make(map[string]binding),
		seen:    make(map[seenKey]time.Time),
	}
}

// Start begins periodic flooding.
func (a *Agent) Start() error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return fmt.Errorf("floodreg: already started")
	}
	a.started = true
	a.mu.Unlock()
	if err := a.host.HandleFrames(netem.KindService, a.onFrame); err != nil {
		return err
	}
	a.mu.Lock()
	if !a.closed {
		a.beat = a.host.Sched().Every(string(a.host.ID()), a.cfg.Interval, func(time.Time) { a.flood() })
	}
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
	beat := a.beat
	a.mu.Unlock()
	beat.Stop()
}

// Stats returns a snapshot of the counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Register adds a local binding; it is flooded on the next interval (and
// immediately, as the original proposal floods on REGISTER).
func (a *Agent) Register(aor, contactAddr string) {
	a.mu.Lock()
	a.local[aor] = contactAddr
	a.mu.Unlock()
	a.flood()
}

// Lookup is local-only: the whole point of proactive flooding.
func (a *Agent) Lookup(aor string) (string, bool) {
	now := a.clk.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if addr, ok := a.local[aor]; ok {
		return addr, true
	}
	b, ok := a.learned[aor]
	if !ok || now.After(b.expires) {
		return "", false
	}
	return b.addr, true
}

// message: seq u32 | origin str | hops u8 | count u16 | (aor str, addr str)*
func (a *Agent) flood() {
	a.mu.Lock()
	if a.closed || len(a.local) == 0 {
		a.mu.Unlock()
		return
	}
	a.seq++
	b := binary.BigEndian.AppendUint32(make([]byte, 0, 64), a.seq)
	b = wire.AppendString(b, string(a.host.ID()))
	b = append(b, floodHops)
	b = binary.BigEndian.AppendUint16(b, uint16(len(a.local)))
	for aor, addr := range a.local {
		b = wire.AppendString(b, aor)
		b = wire.AppendString(b, addr)
	}
	a.seen[seenKey{a.host.ID(), a.seq}] = a.clk.Now()
	a.stats.FloodsOriginated++
	a.mu.Unlock()
	_ = a.host.SendFrame(netem.Broadcast, netem.KindService, b)
}

func (a *Agent) onFrame(f netem.Frame) {
	r := wire.NewReader(f.Payload)
	seq := r.U32()
	origin := netem.NodeID(r.String())
	hops := r.U8()
	n := int(r.U16())
	type pair struct{ aor, addr string }
	pairs := make([]pair, 0, n)
	for range n {
		p := pair{aor: r.String()}
		p.addr = r.String()
		pairs = append(pairs, p)
	}
	if r.Err() != nil || origin == a.host.ID() {
		return
	}
	now := a.clk.Now()
	k := seenKey{origin, seq}
	a.mu.Lock()
	if _, dup := a.seen[k]; dup {
		a.mu.Unlock()
		return
	}
	a.seen[k] = now
	if len(a.seen) > 8192 {
		for key, t := range a.seen {
			if now.Sub(t) > bindingIntervals*a.cfg.Interval {
				delete(a.seen, key)
			}
		}
	}
	for _, p := range pairs {
		cur, ok := a.learned[p.aor]
		if ok && cur.origin == origin && cur.seq > seq {
			continue
		}
		a.learned[p.aor] = binding{addr: p.addr, origin: origin, seq: seq, expires: now.Add(bindingIntervals * a.cfg.Interval)}
		a.stats.BindingsLearned++
	}
	relay := hops > 1
	if relay {
		a.stats.FloodsRelayed++
	}
	a.mu.Unlock()
	if relay {
		// Re-encode with a decremented hop budget.
		b := binary.BigEndian.AppendUint32(make([]byte, 0, len(f.Payload)), seq)
		b = wire.AppendString(b, string(origin))
		b = append(b, hops-1)
		b = binary.BigEndian.AppendUint16(b, uint16(len(pairs)))
		for _, p := range pairs {
			b = wire.AppendString(b, p.aor)
			b = wire.AppendString(b, p.addr)
		}
		_ = a.host.SendFrame(netem.Broadcast, netem.KindService, b)
	}
}
