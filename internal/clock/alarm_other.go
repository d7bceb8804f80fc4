//go:build !linux

package clock

// newAlarm gives every clock its own Timer: without a timerfd, a system-clock
// worker wakes at the runtime poller's granularity.
func newAlarm(clk Clock) alarm { return newTimerAlarm(clk) }
