package clock

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// newSystemAlarm gives the system clock a timerfd. A system that refuses it
// gets a time.Timer.
func newSystemAlarm() alarm {
	if a, err := newFDAlarm(); err == nil {
		return a
	}
	return newTimerAlarm()
}

// fdAlarm is a CLOCK_MONOTONIC timerfd, non-blocking and registered with the
// runtime's netpoller by os.NewFile. wait is a Read that parks the worker's
// goroutine in the poller — no thread blocked, no P held — and the poller's
// epoll_wait returns when the kernel timer expires. A Go timer is a timeout
// of that same epoll_wait, rounded up to whole milliseconds
// (runtime/netpoll_epoll.go), which is why the system clock's Timer wakes a
// worker half a millisecond late on average and this does not.
type fdAlarm struct {
	f    *os.File
	fd   uintptr    // f's descriptor, kept because f.Fd() would make it blocking
	spec itimerspec // set under the shard lock, so one per alarm suffices
	buf  [8]byte    // the expiry count a Read returns; only the worker reads
}

// itimerspec is the kernel's struct itimerspec: the reload interval (zero,
// one-shot) and the time to the expiry.
type itimerspec struct {
	interval, value syscall.Timespec
}

// clockMonotonic is CLOCK_MONOTONIC, the clock time.Now's monotonic reading
// comes from, so a delay measured with time.Until expires where it should.
const clockMonotonic = 1

func newFDAlarm() (*fdAlarm, error) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	f := os.NewFile(fd, "timerfd")
	// A descriptor the poller did not take cannot park a reader (a Read
	// would return EAGAIN at once); only a pollable one takes a deadline.
	if err := f.SetReadDeadline(time.Time{}); err != nil {
		f.Close()
		return nil, err
	}
	return &fdAlarm{f: f, fd: fd}, nil
}

// arm sets the timer relative to now: timerfd_settime never blocks, and a
// zero delay would disarm it, so a due already past is one nanosecond away.
// Setting it also clears an expiry no Read has collected yet. Its result is
// not checked because it cannot fail: the shard arms only while it is open,
// so the descriptor is too, and the value is normalised.
func (a *fdAlarm) arm(due time.Time) {
	a.spec.value = syscall.NsecToTimespec(max(int64(time.Until(due)), 1))
	_, _, _ = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&a.spec)), 0, 0, 0)
}

// wait reads the expiry count. A Read fails only once close has run: the
// poller retries a Read that finds the count cleared by a re-arm.
func (a *fdAlarm) wait() bool {
	_, err := a.f.Read(a.buf[:])
	return err == nil
}

// close wakes a parked Read, which then fails, and closes the descriptor once
// that Read has returned.
func (a *fdAlarm) close() { a.f.Close() }
