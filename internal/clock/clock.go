// Package clock provides an injectable time source so that protocol timers
// (SIP transactions, AODV route lifetimes, OLSR refresh intervals, SLP TTLs)
// can run against real time in daemons and against a deterministic virtual
// clock in tests and experiments.
package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts the passage of time.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks the caller for d. On a Fake it parks the caller like Wait.
	Sleep(d time.Duration)
}

// System is a Clock backed by the real time package.
type System struct{}

var _ Clock = System{}

// New returns the process-wide real-time clock.
func New() Clock { return System{} }

// Now implements Clock.
func (System) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (System) Sleep(d time.Duration) { time.Sleep(d) }

// Fake is a virtual clock that advances itself (DESIGN.md §13.1). Time stands
// still while anything on it can run: its owner — the goroutine that created
// it, the test body — until it parks in Wait or Sleep, a shard worker of a
// Scheduler on it that is not parked, or a waiter released but not yet
// resumed. When nothing can, it jumps to the earliest deadline among the
// workers' queued tasks and the parked waits and releases what is due there:
// the workers first, the waiters once those have parked again. A waiter a
// Gate released resumes once every worker is parked, owner or no owner.
// Other goroutines' waits move time only while the owner waits too. With the
// owner parked and no deadline left, the parked waiters panic, naming their
// waits, rather than hang the binary. Construct with NewFake.
type Fake struct {
	mu  sync.Mutex
	now time.Time
	// busy counts the workers not parked and the waiters woken but not yet
	// resumed; time moves only while it is 0 and the owner is parked.
	busy        int
	owner       uint64 // the creating goroutine's id
	ownerParked bool
	waits       []*parking // parked workers and waiters
	spare       []*parking // parked before, kept so that a wait allocates nothing
	stack       [64]byte   // goid's buffer
}

var _ Clock = (*Fake)(nil)

// NewFake returns a Fake clock starting at start, driven by the calling
// goroutine.
func NewFake(start time.Time) *Fake {
	f := &Fake{now: start}
	f.owner = f.goid()
	return f
}

// goid returns the calling goroutine's id, which the runtime prints at the
// head of its stack trace ("goroutine 7 [running]:"). Only a Fake asks, once
// per wait and once at creation, with f.mu held or before f is shared.
func (f *Fake) goid() uint64 {
	var id uint64
	for _, c := range f.stack[len("goroutine "):runtime.Stack(f.stack[:], false)] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep implements Clock: it parks the caller until the clock has advanced by
// d.
func (f *Fake) Sleep(d time.Duration) {
	f.mu.Lock()
	p := f.parking("clock.Sleep")
	p.due, p.timed = f.now.Add(d), true
	f.park(p)
}

// parking is a goroutine parked in Wait or Sleep, or a shard worker's place
// to park (fakeAlarm).
type parking struct {
	what   string // names the wait in the deadlock panic
	owner  bool   // the owner is the one parked
	worker bool
	queued bool // in waits
	due    time.Time
	timed  bool // due is set
	gates  [2]*Gate
	ready  bool // a gate opened: resume once no worker runs
	dead   bool // a waiter nothing can release panics, a closed worker exits
	wake   chan struct{}
}

// parking returns a cleared parking for a wait named what by the calling
// goroutine. Called with f.mu held.
func (f *Fake) parking(what string) *parking {
	var p *parking
	if n := len(f.spare); n > 0 {
		p = f.spare[n-1]
		f.spare = f.spare[:n-1]
		*p = parking{wake: p.wake}
	} else {
		p = &parking{wake: make(chan struct{}, 1)}
	}
	p.what, p.owner = what, f.goid() == f.owner
	return p
}

// park queues p and blocks until dispatch wakes it, then leaves the busy
// count. Called with f.mu held; returns with it released.
func (f *Fake) park(p *parking) {
	f.queue(p)
	f.mu.Unlock()
	<-p.wake
	f.mu.Lock()
	f.busy--
	if p.owner {
		f.ownerParked = false
	}
	f.dispatch()
	dead, what := p.dead, p.what
	f.spare = append(f.spare, p)
	f.mu.Unlock()
	if dead {
		panic("clock: every goroutine on the fake clock is parked and no deadline is left: " + what + " can never return")
	}
}

// queue parks p and lets time move if that was all it waited for. Called
// with f.mu held.
func (f *Fake) queue(p *parking) {
	f.waits = append(f.waits, p)
	p.queued = true
	if p.owner {
		f.ownerParked = true
	}
	f.dispatch()
}

// dispatch runs whenever something parks, resumes or is released, with f.mu
// held. With no worker running it resumes the released waiters or, if there
// are none and the owner is parked, advances time to the next deadline.
func (f *Fake) dispatch() {
	if f.busy > 0 || f.wakeWaits(isReady) || !f.ownerParked {
		return
	}
	var next time.Time
	found := false
	for _, p := range f.waits {
		if p.timed && (!found || p.due.Before(next)) {
			next, found = p.due, true
		}
	}
	if !found {
		f.wakeWaits(func(p *parking) bool {
			p.dead = !p.worker
			return p.dead
		})
		return
	}
	if next.After(f.now) {
		f.now = next
	}
	// Workers first: a waiter due at the same instant resumes once the
	// tasks due then have run and the workers have parked again.
	due := func(p *parking) bool { return p.timed && !p.due.After(f.now) }
	if !f.wakeWaits(func(p *parking) bool { return p.worker && due(p) }) {
		f.wakeWaits(due)
	}
}

func isReady(p *parking) bool { return p.ready }

// wakeWaits wakes every parked worker or waiter sel picks, counting it as
// busy, and reports whether there was one. A worker woken for its deadline
// has had its alarm fire.
func (f *Fake) wakeWaits(sel func(*parking) bool) bool {
	kept := f.waits[:0]
	woke := false
	for _, p := range f.waits {
		if !sel(p) {
			kept = append(kept, p)
			continue
		}
		p.queued, p.timed = false, false
		f.busy++
		p.wake <- struct{}{}
		woke = true
	}
	clear(f.waits[len(kept):])
	f.waits = kept
	return woke
}

// Gate is a one-shot release that goroutines park on with Wait: Open releases
// every waiter, at once and for good. On a Fake clock the release is counted
// when Open runs, so a task that opens a gate and then parks cannot let time
// move before the waiter has resumed. Bind it with Init before use.
type Gate struct {
	ch     chan struct{}
	fake   *Fake
	opened atomic.Bool
}

// Init binds the gate to clk, closed.
func (g *Gate) Init(clk Clock) {
	g.ch = make(chan struct{})
	g.fake, _ = clk.(*Fake)
}

// Open releases the gate's waiters, present and future. Safe to call more
// than once and from a task.
func (g *Gate) Open() {
	f := g.fake
	if f == nil {
		if !g.opened.Swap(true) {
			close(g.ch)
		}
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if g.opened.Swap(true) {
		return
	}
	close(g.ch)
	for _, p := range f.waits {
		if p.gates[0] == g || p.gates[1] == g {
			p.ready = true
		}
	}
	f.dispatch()
}

// IsOpen reports whether Open has been called.
func (g *Gate) IsOpen() bool { return g.opened.Load() }

// Wait parks the caller until one of gates opens or timeout passes; a negative
// timeout never passes. It returns the index of the first open gate, or -1 if
// none opened. what names the wait in a Fake clock's deadlock panic. At most
// two gates, all bound to one clock.
func Wait(what string, timeout time.Duration, gates ...*Gate) int {
	if f := gates[0].fake; f != nil {
		f.mu.Lock()
		if i := openIndex(gates); i >= 0 {
			f.mu.Unlock()
			return i
		}
		p := f.parking(what)
		p.due, p.timed = f.now.Add(timeout), timeout >= 0
		copy(p.gates[:], gates)
		f.park(p)
		return openIndex(gates)
	}
	var c1 <-chan struct{}
	if len(gates) > 1 {
		c1 = gates[1].ch
	}
	var expired <-chan time.Time
	if timeout >= 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-gates[0].ch:
	case <-c1:
	case <-expired:
	}
	return openIndex(gates)
}

func openIndex(gates []*Gate) int {
	for i, g := range gates {
		if g.IsOpen() {
			return i
		}
	}
	return -1
}
