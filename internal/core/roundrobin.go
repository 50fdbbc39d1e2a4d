package core

import (
	"fmt"

	"repro/internal/storage"
)

// RoundRobinPlacement is the third classic single-attribute-free baseline
// (Gamma offered it alongside hash and range): tuples are dealt to
// processors in arrival order. It balances storage perfectly but gives the
// optimizer nothing to localize with — every selection visits every
// processor. Included for the ablation benches; the paper's introduction
// discusses why such strategies waste resources on selective queries.
type RoundRobinPlacement struct {
	p int
}

// NewRoundRobin builds a round-robin placement over p processors.
func NewRoundRobin(p int) *RoundRobinPlacement {
	if p <= 0 {
		panic(fmt.Sprintf("core: round-robin needs positive processors, got %d", p))
	}
	return &RoundRobinPlacement{p: p}
}

// Name implements Placement.
func (r *RoundRobinPlacement) Name() string { return "roundrobin" }

// Processors implements Placement.
func (r *RoundRobinPlacement) Processors() int { return r.p }

// HomeOf implements Placement: tuple i goes to processor i mod P.
func (r *RoundRobinPlacement) HomeOf(t *storage.Tuple) int {
	return int(t.TID % int64(r.p))
}

// Route implements Placement: no localization information exists, so every
// predicate visits every processor.
func (r *RoundRobinPlacement) Route(pred Predicate) Route {
	return Route{Participants: allProcessors(r.p)}
}
