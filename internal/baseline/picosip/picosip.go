// Package picosip implements the proactive HELLO-mapping baseline
// (O'Doherty, "Pico SIP", Internet Draft 2001 — reference [13] of the
// paper): every node periodically broadcasts a HELLO carrying its complete
// table of known SIP client mappings; neighbours merge tables, so the full
// mapping eventually reaches everyone. The paper criticizes the approach for
// wasting resources when mappings go unused and for being incompatible with
// SIP registration; experiment E9 measures that standing cost.
package picosip

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
	// HelloInterval is the table-broadcast period (default 1s).
	HelloInterval time.Duration
}

// entryIntervals is how many hello intervals an unrefreshed mapping stays
// valid.
const entryIntervals = 4

func (c Config) withDefaults() Config {
	if c.HelloInterval == 0 {
		c.HelloInterval = time.Second
	}
	return c
}

// Stats counts agent activity.
type Stats struct {
	HellosSent      int64
	MappingsLearned int64
}

type mapping struct {
	addr    string
	origin  netem.NodeID
	seq     uint32
	expires time.Time
}

// Agent is one node's Pico-SIP mapper.
type Agent struct {
	host *netem.Host
	cfg  Config
	clk  clock.Clock

	mu      sync.Mutex
	local   map[string]string
	table   map[string]mapping
	seq     uint32
	stats   Stats
	started bool
	closed  bool
	beat    *clock.Task
}

// New creates the agent.
func New(host *netem.Host, cfg Config) *Agent {
	cfg = cfg.withDefaults()
	return &Agent{
		host:  host,
		cfg:   cfg,
		clk:   host.Clock(),
		local: make(map[string]string),
		table: make(map[string]mapping),
	}
}

// Start begins periodic HELLOs.
func (a *Agent) Start() error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return fmt.Errorf("picosip: already started")
	}
	a.started = true
	a.mu.Unlock()
	if err := a.host.HandleFrames(netem.KindService, a.onFrame); err != nil {
		return err
	}
	a.mu.Lock()
	if !a.closed {
		a.beat = a.host.Sched().Every(string(a.host.ID()), a.cfg.HelloInterval, func(time.Time) { a.sendHello() })
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

// Register adds a local SIP client mapping.
func (a *Agent) Register(aor, contactAddr string) {
	a.mu.Lock()
	a.local[aor] = contactAddr
	a.mu.Unlock()
}

// Lookup is local-only, answered from the proactively gossiped table.
func (a *Agent) Lookup(aor string) (string, bool) {
	now := a.clk.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if addr, ok := a.local[aor]; ok {
		return addr, true
	}
	m, ok := a.table[aor]
	if !ok || now.After(m.expires) {
		return "", false
	}
	return m.addr, true
}

// TableSize reports how many remote mappings the node carries (the memory
// cost the paper objects to).
func (a *Agent) TableSize() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.table)
}

// hello wire format: count u16 | (aor str, addr str, origin str, seq u32)*
func (a *Agent) sendHello() {
	now := a.clk.Now()
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.seq++
	type entry struct {
		aor, addr string
		origin    netem.NodeID
		seq       uint32
	}
	entries := make([]entry, 0, len(a.local)+len(a.table))
	for aor, addr := range a.local {
		entries = append(entries, entry{aor, addr, a.host.ID(), a.seq})
	}
	for aor, m := range a.table {
		if now.After(m.expires) {
			delete(a.table, aor)
			continue
		}
		entries = append(entries, entry{aor, m.addr, m.origin, m.seq})
	}
	a.stats.HellosSent++
	a.mu.Unlock()
	b := binary.BigEndian.AppendUint16(make([]byte, 0, 16+48*len(entries)), uint16(len(entries)))
	for _, e := range entries {
		b = wire.AppendString(b, e.aor)
		b = wire.AppendString(b, e.addr)
		b = wire.AppendString(b, string(e.origin))
		b = binary.BigEndian.AppendUint32(b, e.seq)
	}
	_ = a.host.SendFrame(netem.Broadcast, netem.KindService, b)
}

func (a *Agent) onFrame(f netem.Frame) {
	r := wire.NewReader(f.Payload)
	n := int(r.U16())
	now := a.clk.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	for range n {
		aor := r.String()
		addr := r.String()
		origin := netem.NodeID(r.String())
		seq := r.U32()
		if r.Err() != nil {
			return
		}
		if origin == a.host.ID() {
			continue
		}
		cur, ok := a.table[aor]
		if ok && cur.origin == origin && cur.seq >= seq {
			// Refresh expiry on equal freshness.
			cur.expires = now.Add(entryIntervals * a.cfg.HelloInterval)
			a.table[aor] = cur
			continue
		}
		a.table[aor] = mapping{addr: addr, origin: origin, seq: seq, expires: now.Add(entryIntervals * a.cfg.HelloInterval)}
		a.stats.MappingsLearned++
	}
}
