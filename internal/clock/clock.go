// Package clock provides an injectable time source so that protocol timers
// (SIP transactions, AODV route lifetimes, OLSR refresh intervals, SLP TTLs)
// can run against real time in daemons and against a deterministic fake in
// tests and experiments.
package clock

import (
	"sync"
	"time"
)

// Timer is the subset of *time.Timer behaviour the protocols need. Stop
// reports whether the timer was still pending, mirroring time.Timer.Stop.
type Timer interface {
	// C returns the channel on which the firing time is delivered.
	C() <-chan time.Time
	// Stop cancels the timer. It reports false if the timer already fired
	// or was stopped.
	Stop() bool
	// Reset re-arms the timer to fire once after d, whatever state it is in,
	// and reports whether it was still pending. No tick from before the
	// Reset is delivered after it, so a loop may keep one Timer and re-arm
	// it instead of allocating a fresh one per wake-up.
	Reset(d time.Duration) bool
}

// Clock abstracts the passage of time.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTimer returns a Timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// After is a convenience wrapper equivalent to NewTimer(d).C().
	After(d time.Duration) <-chan time.Time
	// Sleep blocks for d.
	Sleep(d time.Duration)
}

// System is a Clock backed by the real time package.
type System struct{}

var _ Clock = System{}

// New returns the process-wide real-time clock.
func New() Clock { return System{} }

// Now implements Clock.
func (System) Now() time.Time { return time.Now() }

// NewTimer implements Clock.
func (System) NewTimer(d time.Duration) Timer { return sysTimer{time.NewTimer(d)} }

// After implements Clock.
func (System) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (System) Sleep(d time.Duration) { time.Sleep(d) }

type sysTimer struct{ t *time.Timer }

func (s sysTimer) C() <-chan time.Time { return s.t.C }
func (s sysTimer) Stop() bool          { return s.t.Stop() }

// Reset needs no drain first: go.mod says go 1.24, and from go 1.23 a
// time.Timer's channel is unbuffered, so a tick prepared before Reset is
// never received after it.
func (s sysTimer) Reset(d time.Duration) bool { return s.t.Reset(d) }

// Fake is a manually advanced Clock for deterministic tests. The zero value
// is not usable; construct with NewFake.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

var _ Clock = (*Fake)(nil)

// NewFake returns a Fake clock starting at start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// NewTimer implements Clock.
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{clk: f, ch: make(chan time.Time, 1)}
	t.armLocked(d)
	return t
}

// After implements Clock.
func (f *Fake) After(d time.Duration) <-chan time.Time { return f.NewTimer(d).C() }

// Sleep implements Clock. On a Fake clock, Sleep blocks until another
// goroutine advances the clock past the deadline.
func (f *Fake) Sleep(d time.Duration) { <-f.After(d) }

// Advance moves the fake time forward by d, firing any timers whose deadline
// is reached, in deadline order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for {
		next := f.earliestLocked(target)
		if next == nil {
			break
		}
		f.now = next.when
		next.fired = true
		next.ch <- f.now
		f.removeLocked(next)
	}
	f.now = target
	f.mu.Unlock()
}

// Set jumps the fake clock to t (which must not be earlier than Now),
// firing due timers.
func (f *Fake) Set(t time.Time) {
	f.mu.Lock()
	now := f.now
	f.mu.Unlock()
	if d := t.Sub(now); d > 0 {
		f.Advance(d)
	}
}

// PendingTimers reports how many fake timers have not yet fired, which is
// useful in tests asserting that cleanup cancelled everything.
func (f *Fake) PendingTimers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.timers)
}

// NextDeadline returns the earliest pending timer deadline, or ok=false when
// no timer is armed. Deterministic test drivers use it to advance straight to
// the next event instant instead of sweeping fixed steps through idle time.
func (f *Fake) NextDeadline() (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var best time.Time
	ok := false
	for _, t := range f.timers {
		if t.fired {
			continue
		}
		if !ok || t.when.Before(best) {
			best, ok = t.when, true
		}
	}
	return best, ok
}

// earliestLocked returns the pending timer with the earliest deadline not
// after limit, or nil.
func (f *Fake) earliestLocked(limit time.Time) *fakeTimer {
	var best *fakeTimer
	for _, t := range f.timers {
		if t.fired || t.when.After(limit) {
			continue
		}
		if best == nil || t.when.Before(best.when) {
			best = t
		}
	}
	return best
}

func (f *Fake) removeLocked(target *fakeTimer) {
	for i, t := range f.timers {
		if t == target {
			f.timers = append(f.timers[:i], f.timers[i+1:]...)
			return
		}
	}
}

type fakeTimer struct {
	clk   *Fake
	when  time.Time
	ch    chan time.Time
	fired bool
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

// armLocked queues the timer at the tail of the clock's list, which is what
// orders equal deadlines, or fires it at once when d <= 0. The timer must not
// be queued and its channel must be empty.
func (t *fakeTimer) armLocked(d time.Duration) {
	f := t.clk
	t.when = f.now.Add(d)
	if d <= 0 {
		t.fired = true
		t.ch <- f.now
		return
	}
	t.fired = false
	f.timers = append(f.timers, t)
}

// Reset leaves the timer exactly where Stop followed by NewTimer would leave
// a fresh one — at the tail of the list, so ties fire in the same order —
// after discarding a tick that fired but was never received.
func (t *fakeTimer) Reset(d time.Duration) bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	pending := !t.fired
	if pending {
		t.clk.removeLocked(t)
	}
	select {
	case <-t.ch:
	default:
	}
	t.armLocked(d)
	return pending
}

func (t *fakeTimer) Stop() bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	if t.fired {
		return false
	}
	t.fired = true
	t.clk.removeLocked(t)
	return true
}
