//go:build !linux

package main

import "time"

// burstClock wakes the open-loop writer at each burst's due time. Off
// Linux it sleeps to the next due time, which the Go timer may overshoot
// by up to a millisecond; loadgen.lag_* shows by how much.
type burstClock struct {
	next, period int64
}

// newBurstClock arms a clock that expires at first (nanotime) and every
// period after it; when first has passed, at the next such time.
func newBurstClock(first int64, period time.Duration) (*burstClock, error) {
	return &burstClock{next: first, period: int64(period)}, nil
}

// wait blocks until the next expiry, or returns at once if one passed
// since the last wait.
func (c *burstClock) wait() error {
	now := nanotime()
	if c.next > now {
		time.Sleep(time.Duration(c.next - now))
		now = c.next
	}
	c.next += ((now-c.next)/c.period + 1) * c.period
	return nil
}

func (c *burstClock) close() error { return nil }
