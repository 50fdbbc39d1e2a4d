package sim

// BusyClock accounts a single-server station's busy time in whole simulated
// nanoseconds since its last reset: the raw reading behind a facility's or
// a disk's utilization. Integer time keeps the accounting exact; the float
// conversions happen only when a reading is taken.
type BusyClock struct {
	busyNS     int64 // busy time of the periods closed since origin
	origin     Time  // last reset
	since      Time  // start of the open busy period (valid while busy)
	busy       bool
	originBusy bool // busy state at the reset instant
}

// Start marks the station busy at now; starting a busy station is a no-op.
func (c *BusyClock) Start(now Time) {
	if !c.busy {
		c.busy, c.since = true, now
	}
}

// Stop marks the station idle at now, closing the open busy period.
func (c *BusyClock) Stop(now Time) {
	if c.busy {
		c.busyNS += int64(now - c.since)
		c.busy = false
	}
}

// Reset restarts the accounting at now, keeping the busy state; used to
// discard the warm-up transient.
func (c *BusyClock) Reset(now Time) {
	c.busyNS, c.origin, c.since, c.originBusy = 0, now, now, c.busy
}

// busyAt reports the busy nanoseconds in [origin, now].
func (c *BusyClock) busyAt(now Time) int64 {
	if c.busy {
		return c.busyNS + int64(now-c.since)
	}
	return c.busyNS
}

// Utilization reports the busy fraction of [origin, now]. A window of zero
// length holds only the state it opened with, so it reads 0 or 1.
func (c *BusyClock) Utilization(now Time) float64 {
	if now <= c.origin {
		if c.originBusy {
			return 1
		}
		return 0
	}
	return float64(c.busyAt(now)) / float64(now-c.origin)
}

// BusySeconds reports the busy time in [origin, now] in simulated seconds.
// Windowed utilization probes difference two readings: delta busy-seconds
// over delta sim-seconds is the utilization of exactly that window.
func (c *BusyClock) BusySeconds(now Time) float64 { return float64(c.busyAt(now)) / 1e9 }
