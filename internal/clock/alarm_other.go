//go:build !linux

package clock

// newSystemAlarm gives the system clock a time.Timer: without a timerfd, a
// worker wakes at the runtime poller's granularity.
func newSystemAlarm() alarm { return newTimerAlarm() }
