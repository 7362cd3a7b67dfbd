package search

import (
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/statespace"
)

// Partial-order and symmetry reduction for the exhaustive searcher
// (Config.Reduce) runs on the shared statespace.Reduction.
//
// The searcher maximizes a cost bill, so a reduction may only prune a
// schedule whose bill is provably equal to a schedule it keeps. Sleep-set
// commutation pruning therefore runs only when the cost model asserts
// model.OrderInvariantCost — swapping two adjacent independent accesses
// changes neither verdict nor canonical pricing state — and symmetry
// canonicalization additionally requires model.PermutationInvariantCost
// (the DSM model asserts both; the CC models only order-invariance, so
// under CC the reduction is sleep sets alone). Models without the
// capability leave the reduction conservatively off. Symmetry keys append
// the pricing state exactly as the plain key does: a
// permutation-invariant model's pricing state is PID-free by the
// capability contract.
//
// The price of reduction is the witness guarantee: skipped schedules can
// include the lexicographically least worst-case schedule, and a memoized
// tail's choice indices are only meaningful at the concrete representative
// that computed them (a PID-permuted arrival settles a permuted choice
// list). Reduced entries therefore publish cost only (nil tails), and the
// witness is reconstructed after the search by descending the memo table
// from the root (see reconstructWitness in exhaustive.go); it replays to
// exactly WorstCost but is not lexicographically least.

// newReduction builds the reduction state for e under scorer's
// capabilities: sleep sets when the model asserts order-invariant costs,
// symmetry when it additionally asserts permutation-invariant costs.
// Returns nil when neither applies (the caller falls back to the plain
// engine).
func newReduction(e *sengine, scorer model.Scorer) *statespace.Reduction {
	r := statespace.NewReduction(e, model.OrderInvariantCost(scorer), model.PermutationInvariantCost(scorer))
	if !r.POR() && !r.Symmetric() {
		return nil
	}
	return r
}

// IndepAfterApply is the searcher's independence oracle (see
// statespace.Engine). The search has no specification monitor, so only
// memory structure matters: a call start touches its own process alone
// and contributes nothing to the bill, hence commutes with everything;
// two steps commute when they touch disjoint addresses or are both
// read-class on the same address (the exact pair classes
// model.OrderInvariantCost covers).
func (e *sengine) IndepAfterApply(u, c choice, cAcc memsim.Access) bool {
	// Fault choices are conservatively dependent with everything: a crash
	// rewinds scheduler bookkeeping and (under VolOwned) rewrites a whole
	// module, and a lost CAS decouples the memory effect from the frame's
	// observation — neither commutes by the step-local rules below.
	if u.Fault != memsim.FaultNone || c.Fault != memsim.FaultNone {
		return false
	}
	if c.Start || u.Start {
		return true
	}
	return statespace.StepsIndependent(e.Pending[u.PID], cAcc)
}
