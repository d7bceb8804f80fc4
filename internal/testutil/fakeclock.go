package testutil

import (
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
