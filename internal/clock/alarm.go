package clock

import "time"

// alarm is the one thing a parked shard worker waits on. The shard sets it
// for its earliest deadline under the shard lock — the worker as it parks,
// At when a newly queued task becomes the head of a parked shard — so a later
// deadline can never overwrite an earlier one. It fires once per arm.
//
// Which alarm a shard gets depends only on its clock (newAlarm): a Fake clock
// gets a fakeAlarm, which the clock fires as it advances; on Linux the system
// clock gets a timerfd read through the runtime's netpoller
// (alarm_linux.go), which wakes the worker within tens of microseconds of the
// deadline; the system clock elsewhere gets a time.Timer, which wakes it at
// the runtime poller's granularity (whole milliseconds on Linux).
type alarm interface {
	// arm sets the alarm to fire at due, replacing any earlier setting; a
	// due already past fires it at once. Called with the shard lock held.
	arm(due time.Time)
	// wait blocks until the alarm fires and reports true, or returns false
	// once the alarm is closed. Only the shard's worker calls it.
	wait() bool
	// close releases the alarm and makes a pending or later wait return
	// false. Called once.
	close()
}

// newAlarm picks a shard's alarm. A clock that is neither System nor a Fake is
// taken to run in real time and gets a time.Timer.
func newAlarm(clk Clock) alarm {
	switch c := clk.(type) {
	case *Fake:
		return c.newAlarm()
	case System:
		return newSystemAlarm()
	}
	return newTimerAlarm()
}

// timerAlarm is the alarm on a time.Timer, for the system clock where there
// is no timerfd.
type timerAlarm struct {
	timer  *time.Timer
	closed chan struct{}
}

func newTimerAlarm() *timerAlarm {
	// The timer exists, stopped, before the worker first waits on its
	// channel, so arming it from At needs no hand-off.
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerAlarm{timer: t, closed: make(chan struct{})}
}

func (a *timerAlarm) arm(due time.Time) { a.timer.Reset(time.Until(due)) }

func (a *timerAlarm) wait() bool {
	select {
	case <-a.timer.C:
		return true
	case <-a.closed:
		return false
	}
}

func (a *timerAlarm) close() {
	a.timer.Stop()
	close(a.closed)
}

// fakeAlarm is a shard worker's place in a Fake clock's accounting: a parking
// that stays the worker's for good. The worker counts as busy from its
// creation until it parks in wait, and again from the moment its alarm fires —
// when At queues a task already due, or when the clock advances to its
// deadline.
type fakeAlarm struct {
	f *Fake
	p parking
}

func (f *Fake) newAlarm() *fakeAlarm {
	a := &fakeAlarm{f: f, p: parking{worker: true, wake: make(chan struct{}, 1)}}
	f.mu.Lock()
	f.busy++
	f.mu.Unlock()
	return a
}

func (a *fakeAlarm) arm(due time.Time) {
	f := a.f
	f.mu.Lock()
	a.p.due, a.p.timed = due, true
	if a.p.queued && !due.After(f.now) {
		f.wakeWaits(func(p *parking) bool { return p == &a.p })
	}
	f.mu.Unlock()
}

func (a *fakeAlarm) wait() bool {
	f, p := a.f, &a.p
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case p.dead: // closed
	case p.timed && !p.due.After(f.now):
		p.timed = false // fired before the worker parked
	default:
		f.busy--
		f.queue(p)
		f.mu.Unlock()
		<-p.wake
		f.mu.Lock()
	}
	return !p.dead
}

// close drops the worker from the accounting: a parked one is woken to exit,
// a running one stops counting now.
func (a *fakeAlarm) close() {
	f := a.f
	f.mu.Lock()
	defer f.mu.Unlock()
	a.p.dead = true
	f.wakeWaits(func(p *parking) bool { return p == &a.p })
	f.busy-- // woken to exit, or running, it counts no more
	f.dispatch()
}
