// Package testutil holds what the tests of several packages share.
package testutil

import (
	"fmt"
	"runtime"
	"time"
)

// SettleGoroutines waits (in wall-clock time — goroutine exit is a runtime
// matter, not a simulated-clock one) until the process goroutine count drops
// to baseline+slack, returning an error listing the leak size if it never
// does. Tests capture the baseline before building what they test and call
// this after tearing it down to prove it leaks nothing.
func SettleGoroutines(baseline, slack int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	n := runtime.NumGoroutine()
	for {
		if n <= baseline+slack {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("siphoc: %d goroutines leaked (%d running, baseline %d+%d)",
				n-baseline-slack, n, baseline, slack)
		}
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
}

// StableGoroutines returns the process goroutine count once it has stopped
// moving: two samples 5 ms apart agree (for at most half a second). A test
// that counts what it starts takes its baseline with this, so that goroutines
// of an earlier test that are still exiting are not counted against it.
func StableGoroutines() int {
	var n int
	for range 100 {
		time.Sleep(5 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == n {
			break
		}
		n = cur
	}
	return n
}
