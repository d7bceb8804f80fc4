package testutil

import (
	"runtime"
	"time"

	"siphoc/internal/clock"
)

// AdvanceUntil steps a fake clock by step at a time, yielding real time after
// each step so that the shard workers the tick woke can run, until cond holds
// or limit of virtual time has passed. It reports whether cond held. With a
// cond that never holds it simply lets limit pass.
func AdvanceUntil(fake *clock.Fake, step, limit time.Duration, cond func() bool) bool {
	for elapsed := time.Duration(0); elapsed < limit; elapsed += step {
		if cond() {
			return true
		}
		fake.Advance(step)
		time.Sleep(50 * time.Microsecond)
	}
	return cond()
}

// Never is the AdvanceUntil condition that lets the whole limit pass.
func Never() bool { return false }

// AdvanceParked steps a fake clock that drives a one-shard scheduler without
// guessing at quiescence: it waits until the worker has run everything due and
// parked on its timer for the next deadline, then advances by step. It returns
// false, without advancing, once done holds — or if nothing parks within ten
// seconds of real time, so a stalled test fails instead of hanging.
func AdvanceParked(fake *clock.Fake, step time.Duration, done func() bool) bool {
	for giveUp := time.Now().Add(10 * time.Second); fake.PendingTimers() == 0; runtime.Gosched() {
		if done() || time.Now().After(giveUp) {
			return false
		}
	}
	if done() {
		return false
	}
	fake.Advance(step)
	return true
}
