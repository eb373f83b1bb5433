package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// burstClock wakes the open-loop writer at each burst's due time. It is a
// periodic timerfd read through the Go netpoller: the kernel's
// high-resolution timer fires on time and the waiting goroutine holds no
// P, whereas time.Sleep rounds sub-millisecond waits up to the netpoller's
// millisecond timeout and left the writer ~0.6 ms late at the median.
type burstClock struct {
	f   *os.File
	buf [8]byte
}

// Linux timerfd constants (x/sys/unix is not a dependency).
const (
	timerfdCreate  = syscall.SYS_TIMERFD_CREATE
	timerfdSettime = syscall.SYS_TIMERFD_SETTIME
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct{ interval, value syscall.Timespec }

// newBurstClock arms a clock that expires at first (nanotime) and every
// period after it; when first has passed, at the next such time.
func newBurstClock(first int64, period time.Duration) (*burstClock, error) {
	fd, _, errno := syscall.Syscall(timerfdCreate, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	f := os.NewFile(fd, "burst-clock")
	next := first - nanotime()
	if next <= 0 {
		next = int64(period) - (-next)%int64(period)
	}
	spec := itimerspec{interval: syscall.NsecToTimespec(int64(period)),
		value: syscall.NsecToTimespec(next)}
	if _, _, errno := syscall.Syscall6(timerfdSettime, fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		f.Close()
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &burstClock{f: f}, nil
}

// wait blocks until the next expiry, or returns at once if one passed
// since the last wait. The expiry count it reads is not needed: the
// writer takes the schedule from nanotime.
func (c *burstClock) wait() error {
	if _, err := c.f.Read(c.buf[:]); err != nil {
		return fmt.Errorf("burst clock: %w", err)
	}
	return nil
}

func (c *burstClock) close() error { return c.f.Close() }
