package netem

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/obs"
)

// FaultKind classifies an injected fault for logs and metrics.
type FaultKind string

// Fault kinds.
const (
	FaultLinkCut       FaultKind = "link.cut"
	FaultLinkHeal      FaultKind = "link.heal"
	FaultLinkDegrade   FaultKind = "link.degrade"
	FaultLinkRestore   FaultKind = "link.restore"
	FaultPartition     FaultKind = "net.partition"
	FaultPartitionHeal FaultKind = "net.heal"
	FaultLossRate      FaultKind = "net.lossrate"
	FaultCustom        FaultKind = "custom"
)

// FaultRecord is one executed fault as logged by the plan runner. Records
// carry only plan-relative data (no wall-clock timestamps), so the log of a
// seeded plan compares bit-identically across runs.
type FaultRecord struct {
	Seq    int           // insertion order within the plan
	Offset time.Duration // scheduled offset from Run()
	Kind   FaultKind
	Detail string
}

// String renders the record for humans.
func (r FaultRecord) String() string {
	return fmt.Sprintf("[%8v] %-14s %s", r.Offset, r.Kind, r.Detail)
}

// FaultPlanConfig tunes a fault plan.
type FaultPlanConfig struct {
	// Seed drives the plan's own RNG, used by the random fault generators
	// (FlapRandomLinks). The injected schedule is a pure function of the
	// seed and the builder calls (default 1).
	Seed int64
	// Obs records an injected-fault counter and node-scoped fault spans
	// that are stitched into overlapping call traces. Nil disables.
	Obs *obs.Observer
}

// faultEvent is one scheduled fault: the mutation plus its log identity.
type faultEvent struct {
	offset time.Duration
	seq    int
	kind   FaultKind
	node   string // affected entity, for the obs span
	detail string
	apply  func()
}

// FaultPlan is a deterministic schedule of faults against a Network: link
// cuts and heals, per-link quality degradation, partitions, loss-rate
// changes, and arbitrary callbacks (node crash/restart, gateway churn) hung
// off At. Each event is a task on the network's scheduler, queued under one
// key, so events run one at a time in (offset, insertion) order and in order
// with the frames and timers due at the same instant — on clock.Fake the same
// plan replays bit-identically: same mutations, same log, same medium RNG draw
// sequence. A callback therefore runs on a shard worker and must not block.
//
// Build the schedule first (the builder is not safe for concurrent use with
// Run), then Run it and Wait for completion.
type FaultPlan struct {
	net *Network
	clk clock.Clock
	rng *rand.Rand
	obs *obs.Observer

	obsInjected *obs.Counter

	mu      sync.Mutex
	events  []faultEvent
	log     []FaultRecord
	running bool
	tasks   []clock.Task

	// done opens when the last event has run, or the plan stopped.
	done clock.Gate
}

// faultKey is the scheduler key every event of every plan is queued under.
const faultKey = "netem.faults"

// NewFaultPlan creates an empty plan against net, scheduled on net's clock.
func NewFaultPlan(net *Network, cfg FaultPlanConfig) *FaultPlan {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p := &FaultPlan{
		net: net,
		clk: net.Clock(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		obs: cfg.Obs,
	}
	p.done.Init(p.clk)
	if cfg.Obs.Enabled() {
		p.obsInjected = cfg.Obs.Counter("netem.faults.injected")
	}
	return p
}

func (p *FaultPlan) add(offset time.Duration, kind FaultKind, node, detail string, apply func()) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events = append(p.events, faultEvent{
		offset: offset,
		seq:    len(p.events),
		kind:   kind,
		node:   node,
		detail: detail,
		apply:  apply,
	})
	return p
}

// At schedules an arbitrary fault callback — the hook scenario layers use
// for node crash/restart and gateway churn. fn runs as a task on a shard
// worker, so it must not block.
func (p *FaultPlan) At(offset time.Duration, detail string, fn func()) *FaultPlan {
	return p.add(offset, FaultCustom, "", detail, fn)
}

// CutLink forces the a–b link down at offset.
func (p *FaultPlan) CutLink(offset time.Duration, a, b NodeID) *FaultPlan {
	return p.add(offset, FaultLinkCut, linkName(a, b), linkName(a, b), func() {
		p.net.SetLink(a, b, false)
	})
}

// HealLink restores distance-based connectivity on the a–b link at offset.
func (p *FaultPlan) HealLink(offset time.Duration, a, b NodeID) *FaultPlan {
	return p.add(offset, FaultLinkHeal, linkName(a, b), linkName(a, b), func() {
		p.net.ClearLink(a, b)
	})
}

// DegradeLink installs a per-link loss/latency override at offset.
func (p *FaultPlan) DegradeLink(offset time.Duration, a, b NodeID, q LinkQuality) *FaultPlan {
	detail := fmt.Sprintf("%s loss=%g extra=%v", linkName(a, b), q.Loss, q.ExtraDelay)
	return p.add(offset, FaultLinkDegrade, linkName(a, b), detail, func() {
		p.net.SetLinkQuality(a, b, q)
	})
}

// RestoreLink removes a DegradeLink override at offset.
func (p *FaultPlan) RestoreLink(offset time.Duration, a, b NodeID) *FaultPlan {
	return p.add(offset, FaultLinkRestore, linkName(a, b), linkName(a, b), func() {
		p.net.ClearLinkQuality(a, b)
	})
}

// Partition cuts every link between the two groups at offset, splitting the
// network. Links inside each group are untouched.
func (p *FaultPlan) Partition(offset time.Duration, west, east []NodeID) *FaultPlan {
	w, e := copyIDs(west), copyIDs(east)
	detail := fmt.Sprintf("%v | %v", w, e)
	return p.add(offset, FaultPartition, "", detail, func() {
		for _, a := range w {
			for _, b := range e {
				p.net.SetLink(a, b, false)
			}
		}
	})
}

// HealPartition removes the cross-group cuts installed by Partition.
func (p *FaultPlan) HealPartition(offset time.Duration, west, east []NodeID) *FaultPlan {
	w, e := copyIDs(west), copyIDs(east)
	detail := fmt.Sprintf("%v | %v", w, e)
	return p.add(offset, FaultPartitionHeal, "", detail, func() {
		for _, a := range w {
			for _, b := range e {
				p.net.ClearLink(a, b)
			}
		}
	})
}

// SetLossRate changes the global loss rate at offset.
func (p *FaultPlan) SetLossRate(offset time.Duration, rate float64) *FaultPlan {
	return p.add(offset, FaultLossRate, "", fmt.Sprintf("rate=%g", rate), func() {
		p.net.SetLossRate(rate)
	})
}

// FlapRandomLinks schedules flaps (a cut followed by a heal after outage) on
// randomly chosen node pairs, with cut offsets drawn uniformly from
// [start, end). The choices come from the plan's seeded RNG, so the same
// seed and arguments always produce the same schedule.
func (p *FaultPlan) FlapRandomLinks(start, end time.Duration, flaps int, outage time.Duration, nodes []NodeID) *FaultPlan {
	if len(nodes) < 2 || end <= start {
		return p
	}
	ids := copyIDs(nodes)
	for range flaps {
		i := p.rng.Intn(len(ids))
		j := p.rng.Intn(len(ids) - 1)
		if j >= i {
			j++
		}
		at := start + time.Duration(p.rng.Int63n(int64(end-start)))
		p.CutLink(at, ids[i], ids[j])
		p.HealLink(at+outage, ids[i], ids[j])
	}
	return p
}

// Len returns the number of scheduled events.
func (p *FaultPlan) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events)
}

// Run starts executing the plan relative to the clock's current time. The
// builder must not be used after Run.
func (p *FaultPlan) Run() error {
	p.mu.Lock()
	if p.running {
		p.mu.Unlock()
		return fmt.Errorf("netem: fault plan already running")
	}
	p.running = true
	// Stable order: offset first, insertion order breaking ties, so a plan
	// built the same way always executes the same way.
	events := p.events
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].offset != events[j].offset {
			return events[i].offset < events[j].offset
		}
		return events[i].seq < events[j].seq
	})
	p.tasks = make([]clock.Task, len(events))
	for i := range events {
		ev, last := &events[i], i == len(events)-1
		p.tasks[i].Init(func(time.Time) {
			p.inject(ev)
			if last {
				p.done.Open()
			}
		}, p.done.Open)
	}
	p.mu.Unlock()
	if len(events) == 0 {
		p.done.Open()
	}
	start := p.clk.Now()
	for i := range events {
		p.net.Sched().At(faultKey, &p.tasks[i], start.Add(events[i].offset))
	}
	return nil
}

// inject applies one event and logs it.
func (p *FaultPlan) inject(ev *faultEvent) {
	span := p.obs.StartSpan("", obs.PhaseFault, ev.node)
	ev.apply()
	if span.Active() {
		span.End(string(ev.kind) + " " + ev.detail)
	}
	p.obsInjected.Inc()
	p.mu.Lock()
	p.log = append(p.log, FaultRecord{Seq: ev.seq, Offset: ev.offset, Kind: ev.kind, Detail: ev.detail})
	p.mu.Unlock()
}

// Wait blocks until every scheduled fault has been injected (or the plan was
// stopped).
func (p *FaultPlan) Wait() { clock.Wait("netem.FaultPlan.Wait", -1, &p.done) }

// Stop cancels the faults still to come; injected ones are not undone.
func (p *FaultPlan) Stop() {
	for i := range p.tasks {
		p.net.Sched().Cancel(faultKey, &p.tasks[i])
	}
	p.done.Open()
}

// Log returns a snapshot of the executed-fault log, in execution order.
func (p *FaultPlan) Log() []FaultRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]FaultRecord(nil), p.log...)
}

func linkName(a, b NodeID) string {
	k := orderedKey(a, b)
	return string(k.a) + "~" + string(k.b)
}

func copyIDs(ids []NodeID) []NodeID {
	return append([]NodeID(nil), ids...)
}
