// Package statespace is the execution substrate shared by the two
// exhaustive engines: internal/explore, which checks Specification 4.1 on
// every schedule, and internal/search, which finds the worst-case RMR
// bill. Both walk the same schedule tree over the same live execution,
// and this package owns that execution once.
//
// An Exec is one worker's live execution: a machine, the deployed
// resumable instance, one frame per process, the per-process scheduler
// arrays and the machine undo log. Settle collects completed calls and
// lists the open choices (steps, call starts and, under a fault policy,
// crash and lost-CAS choice points); Apply performs one choice; Save and
// Restore snapshot and rewind a tree node through a pooled Mark, so
// moving to a sibling retracts one decision instead of replaying the
// prefix. The engines embed an Exec and add only what differs: the
// explorer's event log, call counts and Specification 4.1 monitor bits,
// and the searcher's forked cost accumulator.
//
// A Reduction adds sleep-set partial-order reduction and PID-symmetry
// canonicalization on top of an Exec. It reaches the wrapping engine
// through the Engine interface: the engine's independence oracle and its
// own state-key fields. Replay re-reaches a tree position by choice index
// and recomputes its sleep set, which is how work-stealing tasks,
// checkpoint units and shard units hand subtrees around as bare index
// prefixes. The unreduced per-node path never calls through Engine.
package statespace
