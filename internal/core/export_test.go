package core

// RebalanceReference exposes the reference scorer to the external tests
// that build paper-scale directories through the experiments package.
var RebalanceReference = rebalanceReference
