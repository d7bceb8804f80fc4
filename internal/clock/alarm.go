package clock

import "time"

// alarm is the one thing a parked shard worker waits on. The shard sets it
// for its earliest deadline under the shard lock — the worker as it parks,
// At when a newly queued task becomes the head of a parked shard — so a later
// deadline can never overwrite an earlier one. It fires once per arm.
//
// Which alarm a shard gets depends only on its clock (newAlarm): on Linux the
// system clock gets a timerfd read through the runtime's netpoller
// (alarm_linux.go), which wakes the worker within tens of microseconds of the
// deadline; every other clock, and the system clock elsewhere, gets the
// clock's own Timer, which for the system clock means the runtime poller's
// granularity (whole milliseconds on Linux).
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

// timerAlarm is the alarm on the clock's own Timer: a Fake clock's, which
// tests step, or the system clock's where there is no timerfd.
type timerAlarm struct {
	clk    Clock
	timer  Timer
	closed chan struct{}
}

func newTimerAlarm(clk Clock) *timerAlarm {
	// The timer exists, stopped, before the worker first waits on its
	// channel, so arming it from At needs no hand-off.
	t := clk.NewTimer(time.Hour)
	t.Stop()
	return &timerAlarm{clk: clk, timer: t, closed: make(chan struct{})}
}

func (a *timerAlarm) arm(due time.Time) { a.timer.Reset(due.Sub(a.clk.Now())) }

func (a *timerAlarm) wait() bool {
	select {
	case <-a.timer.C():
		return true
	case <-a.closed:
		return false
	}
}

func (a *timerAlarm) close() {
	a.timer.Stop()
	close(a.closed)
}
