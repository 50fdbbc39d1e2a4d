package gamma

import (
	"fmt"

	"repro/internal/sim"
)

// DefaultSharingWindow is the batching window when the spec gives none:
// long enough that selections admitted in the same burst coalesce, short
// enough to stay well under a single query's service time.
const DefaultSharingWindow = 5 * sim.Millisecond

// SharingSpec arms the shared-scan manager on the machine: concurrent
// selections whose scans hit the same fragment with the same access method
// within the batching window are predicate-grouped and run as one disk
// pass (see exec.SharedScans). Nil (the default) leaves the simulation
// schedule byte-identical to a build without sharing support. Sharing
// composes with Faults and ChainedReplicas: batches are keyed by replica
// role and placement epoch, and stale batch replies are dropped by
// attempt.
type SharingSpec struct {
	// Window is the batching window in simulated time: the first selection
	// to open a predicate group waits at most this long for others to join
	// its disk pass. Default DefaultSharingWindow (5ms).
	Window sim.Duration
}

// window resolves the batching window.
func (s *SharingSpec) window() sim.Duration {
	if s == nil || s.Window == 0 {
		return DefaultSharingWindow
	}
	return s.Window
}

// validate rejects nonsensical windows (nil is valid: sharing off).
func (s *SharingSpec) validate() error {
	if s != nil && s.Window < 0 {
		return fmt.Errorf("gamma: negative sharing window %v", s.Window)
	}
	return nil
}
