package explore

import (
	"repro/internal/memsim"
	"repro/internal/statespace"
)

// Partial-order and symmetry reduction (EngineBacktrackDedupPOR) runs on
// the shared statespace.Reduction; the explorer supplies its independence
// oracle. Skipped schedules are permutations-by-adjacent-independent-swaps
// of schedules explored elsewhere, so for properties invariant under such
// swaps — CheckSpec's class: every spec-relevant ordering (poll starts vs.
// the first Signal completion, read values vs. the writes that produce
// them) is a dependent pair under the oracle below — Check outcomes and
// violation presence are preserved.

// IndepAfterApply is the explorer's independence oracle (see
// statespace.Engine). Besides memory effects, the pair must preserve the
// event orderings Specification 4.1 conditions on: a Signal's start
// against a Poll-true or Wait completion (poll-true/wait-return), and a
// Signal's completion against any call start (the poll-false rule and the
// afterSigEnd latch in the dedup key). The rules:
//
//	(i)   two call starts commute — each touches only its own process, and
//	      no spec rule orders two starts against each other;
//	(ii)  a Signal start is dependent with every step: the step might
//	      complete its call (a Poll returning true or a Wait must not have
//	      its completion swapped across the Signal's start, and a
//	      completing Signal orders against any start), which is unknowable
//	      before applying it — a non-Signal start commutes with a step
//	      unless the step's process is inside a Signal;
//	(iii) a step that completed its call is dependent with a start when the
//	      spec orders that completion against it: a completed Signal with
//	      every start, a completed Wait or true-returning Poll with a
//	      Signal start (the start's kind is the process's next scripted
//	      call, known exactly);
//	(iv)  two steps commute when they touch disjoint addresses or are both
//	      read-class on the same address — steps never order against other
//	      calls' starts (those starts are in the common past), so only
//	      memory effects and the completion latches above matter.
func (e *bengine) IndepAfterApply(u, c choice, cAcc memsim.Access) bool {
	// Fault choices are conservatively dependent with everything: a crash
	// rewinds call bookkeeping and (under VolOwned) rewrites a whole
	// module, and a lost CAS decouples the memory effect from the frame's
	// observation — neither commutes by the step-local rules below.
	if u.Fault != memsim.FaultNone || c.Fault != memsim.FaultNone {
		return false
	}
	if c.Start {
		if u.Start {
			return true
		}
		if e.Kinds[c.PID] == memsim.CallSignal {
			return false
		}
		return e.Kinds[u.PID] != memsim.CallSignal
	}
	if u.Start {
		if e.Phase[c.PID] != statespace.Done {
			return true
		}
		switch e.Kinds[c.PID] {
		case memsim.CallSignal:
			return false
		case memsim.CallWait:
			return e.Scripts[u.PID][e.Progress[u.PID]] != memsim.CallSignal
		default: // CallPoll
			return e.Rets[c.PID] == 0 || e.Scripts[u.PID][e.Progress[u.PID]] != memsim.CallSignal
		}
	}
	return statespace.StepsIndependent(e.Pending[u.PID], cAcc)
}
