package exec

import "sync"

// A campaign builds a machine per job, and each job's nodes and host would
// otherwise allocate their operator and request records anew as the job
// warms up. A node and a host keep every such record they take, and
// Release hands them all to the spare lists below, which the next
// machines take from before they allocate. Once the engine is closed no
// record runs again, not even one an operator or a query was still using:
// a closed run ends in the middle of its queries. Collectors and aux
// lookups are not spared: the lists they keep are larger than what
// recycling them saves.

// spares is a bounded, mutex-guarded list of idle records left by closed
// machines, safe for concurrent use by the jobs of a worker pool.
type spares[T any] struct {
	sync.Mutex
	recs []*T
	max  int
}

// The bounds fit about what one closed job at MPL 64 over 32 nodes
// leaves. Full, the lists hold 512 KB of operator records and 256 KB of
// selection requests, plus the page and slot lists the requests keep,
// each as long as the largest answer it held.
var (
	spareOps  = spares[operator]{max: 1024}
	spareSels = spares[startOp]{max: 1024}
)

// take returns a spare record, or a new one.
func (s *spares[T]) take() *T {
	s.Lock()
	defer s.Unlock()
	n := len(s.recs)
	if n == 0 {
		return new(T)
	}
	r := s.recs[n-1]
	s.recs[n-1] = nil
	s.recs = s.recs[:n-1]
	return r
}

// add keeps r, if the list has room; the caller holds the lock.
func (s *spares[T]) add(r *T) {
	if len(s.recs) < s.max {
		s.recs = append(s.recs, r)
	}
}

// Release hands every operator record the node has taken to later
// machines' nodes. Call it once the node's engine is closed.
func (n *Node) Release() {
	spareOps.Lock()
	for _, op := range n.ops {
		clear(op.byProc[:cap(op.byProc)]) // the last join scan's key lists
		*op = operator{byProc: op.byProc[:0]}
		spareOps.add(op)
	}
	spareOps.Unlock()
	clear(n.ops)
	n.ops, n.freeOps = n.ops[:0], nil
}

// Release hands every selection request record the host has taken to
// later machines' hosts. Call it once the host's engine is closed.
func (h *Host) Release() {
	spareSels.Lock()
	for _, r := range h.sels {
		*r = startOp{TIDs: r.TIDs[:0], bufs: r.bufs}
		spareSels.add(r)
	}
	spareSels.Unlock()
	clear(h.sels)
	clear(h.freeSel)
	h.sels, h.freeSel = h.sels[:0], h.freeSel[:0]
}
