package statespace

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/memsim"
)

// Partial-order and symmetry reduction, shared by both engines.
//
// Commutation pruning uses sleep sets: at every expanded node the
// traversal skips children whose process is in the node's sleep set, and
// the sleep set passed into a child keeps exactly the earlier siblings
// (plus inherited sleepers) whose enabled choice commutes with the chosen
// one. Skipped schedules are permutations-by-adjacent-independent-swaps
// of schedules explored elsewhere. What "commutes" means is the engine's
// to say (Engine.IndepAfterApply): the explorer must also preserve the
// event orderings Specification 4.1 conditions on, the searcher only the
// bill under an order-invariant cost model.
//
// Symmetry canonicalization merges PID-permuted states: workloads declare
// interchangeable process roles (memsim.SymmetricInstance), the reduction
// refines the declared members to script-identical groups, and the
// reduced key sorts each group's per-member blocks (scheduler state,
// frames and the member's private row of machine words, all with row
// addresses rewritten to canonical column tokens) into byte order before
// hashing. Two states that differ only by permuting members then claim
// the same table slot. Sorting a group with per-member addresses is gated
// on every scripted non-member being finished: an in-flight non-member
// (e.g. a signaler fanning over the rows) holds a frame that names
// members by concrete address, which canonical sorting cannot rewrite.
// Groups that cannot be sorted at a state degrade to the identity
// encoding for that state, recorded in a sorted-mask prefix so degraded
// and sorted encodings never collide.

// Engine is what the reduction and Replay need from an engine that embeds
// an Exec: its own settle and apply (which keep the engine's bookkeeping
// in step with the substrate), its independence oracle, and the key
// fields it adds to the substrate's. The unreduced per-node path calls
// none of these through the interface.
type Engine interface {
	exec() *Exec

	// SettleAt and Step are the engine's settle and apply.
	SettleAt(depth int) []Choice
	Step(c Choice, idx int) error

	// IndepAfterApply reports whether u's enabled choice at the parent
	// node commutes with the just-applied choice c: applying them in
	// either order (settling between and after) reaches the same
	// canonical state, and the engine cannot tell the two orders apart.
	// It is called immediately after applying c and before the child
	// settles; cAcc is c's pending access captured before the apply
	// consumed it (unused when c is a start).
	IndepAfterApply(u, c Choice, cAcc memsim.Access) bool

	// The reduced key carries the engine's own fields at four places:
	// AppendHeadKey right after the sorted-mask prefix, AppendGlobalKey
	// after memory and reservations, AppendProcKey in each process
	// section (after the phase byte), and AppendTailKey at the end. Where
	// each field sits is part of the key bytes stored snapshots pin.
	AppendHeadKey(b []byte) []byte
	AppendGlobalKey(b []byte) []byte
	AppendProcKey(b []byte, p memsim.PID) []byte
	AppendTailKey(b []byte) []byte
}

// StepsIndependent reports whether two steps with accesses u and c
// commute as memory operations: they touch disjoint addresses or are both
// read-class on the same address. Read-class ops never modify the word or
// another process's reservation: plain reads, and LL (which only
// [re]sets the acting process's own link).
func StepsIndependent(u, c memsim.Access) bool {
	if u.Addr != c.Addr {
		return true
	}
	readClass := func(op memsim.Op) bool { return op == memsim.OpRead || op == memsim.OpLL }
	return readClass(u.Op) && readClass(c.Op)
}

// Reduction is the per-worker reduction state: the validated symmetry of
// the worker's execution, pre-built normalization closures, and reusable
// scratch.
type Reduction struct {
	x   *Exec
	eng Engine
	sym *memsim.Symmetry
	por bool // sleep sets active (whole-mask uint64: needs n <= 64)

	// sortedMask is the per-state set of groups being sorted, read at call
	// time by the pre-built norm closures.
	sortedMask uint64
	norms      [][]func(memsim.Addr) (int64, bool) // [group][member]
	blockBufs  [][][]byte                          // [group][member] scratch
	blocks     [][]byte                            // sort scratch
	order      []int                               // sort-order scratch

	// rank is the canonical position of each process at the node whose key
	// StateKey computed last: members of sorted groups rank by their
	// block's position in the group's canonical order, everything else by
	// PID. The sleep recurrence orders siblings by rank, which makes it
	// equivariant under the PID permutations the symmetry reduction merges
	// — raw PID order is not, and would make the visit set (and every
	// counter) depend on which permuted representative claimed a canonical
	// state first.
	rank []int32

	// earlier holds one earlier-sibling mask buffer per depth, sized by
	// the choice count (fault choices can push it to 3n, past 64).
	earlier [][]uint64
}

// NewReduction builds the reduction state for eng's execution: sleep sets
// when por (and the process count fits a uint64 mask), PID symmetry when
// symmetric and the instance declares usable groups.
func NewReduction(eng Engine, por, symmetric bool) *Reduction {
	x := eng.exec()
	r := &Reduction{x: x, eng: eng, por: por && x.N <= 64}
	if !symmetric {
		return r
	}
	scripted := func(p memsim.PID) bool { return x.Scripts[p] != nil }
	sameScript := func(a, b memsim.PID) bool { return slices.Equal(x.Scripts[a], x.Scripts[b]) }
	r.sym = memsim.BuildSymmetry(x.Mach, x.Inst, x.N, scripted, sameScript)
	if r.sym == nil {
		return r
	}
	r.rank = make([]int32, x.N)
	groups := r.sym.Groups()
	maxMembers := 0
	for _, g := range groups {
		maxMembers = max(maxMembers, len(g.Members))
	}
	r.order = make([]int, maxMembers)
	r.norms = make([][]func(memsim.Addr) (int64, bool), len(groups))
	r.blockBufs = make([][][]byte, len(groups))
	for gi, g := range groups {
		r.norms[gi] = make([]func(memsim.Addr) (int64, bool), len(g.Members))
		r.blockBufs[gi] = make([][]byte, len(g.Members))
		for mi := range g.Members {
			r.norms[gi][mi] = r.sym.NormFunc(gi, mi, &r.sortedMask)
		}
	}
	return r
}

// POR reports whether sleep sets are active (false on a nil Reduction).
func (r *Reduction) POR() bool { return r != nil && r.por }

// Symmetric reports whether the execution has usable symmetry groups.
func (r *Reduction) Symmetric() bool { return r != nil && r.sym != nil }

// rankOf is the canonical position of p at the node StateKey last
// encoded: its block's position within its sorted group, or the raw PID
// outside one. Ranks of distinct processes never collide (group positions
// are offset past every PID).
func (r *Reduction) rankOf(p memsim.PID) int32 {
	if r.rank == nil {
		return int32(p)
	}
	return r.rank[p]
}

// EarlierMasks returns, for each choices[i], the PID bits of the siblings
// canonically ordered before it. Sibling order is what the sleep-set
// recurrence means by "earlier", and ranking by canonical position rather
// than raw PID makes the recurrence equivariant under the permutations
// the symmetry reduction merges: permuted representatives of one
// canonical state then expand isomorphic subtrees, so the visit set and
// every reduction counter stay deterministic no matter which
// representative claims first. Must run after StateKey at the same node
// (StateKey sets the ranks). The result lives in depth's buffer, because
// child recursions overwrite the rank scratch; it stays valid until the
// same depth asks again.
func (r *Reduction) EarlierMasks(depth int, choices []Choice) []uint64 {
	for len(r.earlier) <= depth {
		// At most n regular choices plus a crash and a lost CAS per
		// process: sized once, the buffer never regrows.
		r.earlier = append(r.earlier, make([]uint64, 0, 3*r.x.N))
	}
	out := r.earlier[depth][:0]
	for _, c := range choices {
		ri := r.rankOf(c.PID)
		var m uint64
		for _, u := range choices {
			// A fault sibling never contributes its PID bit: putting the
			// bit to sleep would (unsoundly) also skip the pid's ordinary
			// step choice, which shares the bit.
			if u.PID != c.PID && u.Fault == memsim.FaultNone && r.rankOf(u.PID) < ri {
				m |= 1 << uint(u.PID)
			}
		}
		out = append(out, m)
	}
	r.earlier[depth] = out
	return out
}

// ChildSleep computes the sleep set for the child reached by applying
// choices[idx]: of the processes asleep at the parent plus the
// canonically earlier siblings (earlier = EarlierMasks(...)[idx]; explored
// elsewhere), keep those whose choice commutes with the applied one. Must
// be called immediately after applying choices[idx]. Without sleep sets
// it returns 0.
func (r *Reduction) ChildSleep(sleep, earlier uint64, choices []Choice, idx int, cAcc memsim.Access) uint64 {
	c := choices[idx]
	if !r.POR() || c.Fault != memsim.FaultNone {
		// A fault drains the sleep set: it is dependent with every
		// sibling, so nothing stays asleep below it.
		return 0
	}
	cur := sleep | earlier
	if cur == 0 {
		return 0
	}
	var out uint64
	for _, u := range choices {
		if u.PID == c.PID {
			continue
		}
		bit := uint64(1) << uint(u.PID)
		if cur&bit != 0 && r.eng.IndepAfterApply(u, c, cAcc) {
			out |= bit
		}
	}
	return out
}

// sortable reports whether group gi can be sorted at the current state:
// groups with per-member addresses additionally require every scripted
// process outside the group to be finished (idle with its script
// exhausted), because an in-flight outsider's frame may reference
// members' rows by concrete address.
func (r *Reduction) sortable(gi int, g memsim.SymGroup) bool {
	x := r.x
	if g.K > 0 {
		for pid := 0; pid < x.N; pid++ {
			p := memsim.PID(pid)
			if x.Scripts[p] == nil || r.sym.MemberGroup(p) == gi {
				continue
			}
			if x.Phase[p] != Idle || x.Progress[p] < len(x.Scripts[p]) {
				return false
			}
		}
	}
	// An outsider's live LL reservation on a member row likewise pins
	// concrete addresses (it would also be renamed away unsoundly).
	for pid := 0; pid < x.N; pid++ {
		if r.sym.MemberGroup(memsim.PID(pid)) == gi {
			continue
		}
		if addr, ok := x.Mach.LLState(memsim.PID(pid)); ok {
			if ag, _, _, isRole := r.sym.RoleAddr(addr); isRole && ag == gi {
				return false
			}
		}
	}
	return true
}

// memberBlock appends member mi of group gi's canonical per-member block
// to dst: sleep bit, scheduler state, pending access, LL reservation, the
// member's private row values, and its frame — every address normalized
// to column tokens via the group's norm closure. ok=false means the
// member's state references an address the normalization cannot rewrite
// (the group must degrade to identity at this state).
func (r *Reduction) memberBlock(dst []byte, gi, mi int, g memsim.SymGroup, sleep uint64) ([]byte, bool) {
	x := r.x
	p := g.Members[mi]
	norm := r.norms[gi][mi]
	dst = append(dst, BoolBit(sleep&(1<<uint(p)) != 0), byte(x.Phase[p]))
	dst = r.eng.AppendProcKey(dst, p)
	dst = binary.AppendUvarint(dst, uint64(x.Progress[p]))
	if x.Phase[p] == Pending {
		acc := x.Pending[p]
		tok, ok := norm(acc.Addr)
		if !ok {
			return dst, false
		}
		dst = append(dst, byte(acc.Op))
		dst = binary.AppendVarint(dst, tok)
		dst = binary.AppendVarint(dst, acc.Arg1)
		dst = binary.AppendVarint(dst, acc.Arg2)
	}
	if addr, ok := x.Mach.LLState(p); ok {
		tok, okn := norm(addr)
		if !okn {
			return dst, false
		}
		dst = append(dst, 1)
		dst = binary.AppendVarint(dst, tok)
	} else {
		dst = append(dst, 0)
	}
	for _, a := range g.Rows[mi] {
		dst = binary.AppendVarint(dst, x.Mach.Load(a))
	}
	if f := x.Frames[p]; f == nil {
		dst = append(dst, 0)
	} else if na, ok := f.(memsim.NormAppender); ok {
		dst = append(dst, 1)
		out, ok := na.AppendStateNorm(dst, norm)
		if !ok {
			return out, false
		}
		dst = out
	} else if r.onlyAddressFreeSorted() {
		// No sorted group owns addresses: the frame's raw encoding already
		// contains no address that sorting would rename.
		dst = append(dst, 1)
		dst = memsim.AppendKeyFrameState(dst, f)
	} else {
		return dst, false
	}
	return dst, true
}

// onlyAddressFreeSorted reports whether every group in the current sorted
// mask has K == 0 (owns no per-member addresses).
func (r *Reduction) onlyAddressFreeSorted() bool {
	for gi, g := range r.sym.Groups() {
		if r.sortedMask&(1<<uint(gi)) != 0 && g.K > 0 {
			return false
		}
	}
	return true
}

// StateKey builds the reduced canonical key for the current post-settle
// state: the sorted-mask prefix, the engine's head fields, machine words
// outside sorted rows, LL reservations of processes outside sorted
// groups, the engine's global fields, per-process sections (with sleep
// bits) for processes outside sorted groups, the sorted member blocks of
// each sorted group, and the engine's tail fields. As a side effect it
// refreshes the canonical ranks at this node (consumed by EarlierMasks).
// merged reports whether some sorted group held two distinct member
// blocks — the canonical encoding collapsed a PID-permutation orbit of
// more than one concrete state; the SymmetryMerges signal, deliberately
// invariant under permuting the representative. With no usable symmetry
// the layout degrades to the plain key plus sleep bits (mask 0), so
// partial-order reduction alone still composes with dedup and memo.
func (r *Reduction) StateKey(sleep uint64) (key [16]byte, merged bool) {
	x := r.x
	var mask uint64
	var groups []memsim.SymGroup
	if r.sym != nil {
		groups = r.sym.Groups()
		for gi, g := range groups {
			if r.sortable(gi, g) {
				mask |= 1 << uint(gi)
			}
		}
	}
	// Build member blocks, dropping any group whose member state cannot
	// be normalized at this state. A drop widens the raw-address set the
	// other groups' closures see, so rebuild until the mask is stable.
	for {
		r.sortedMask = mask
		stable := true
		for gi, g := range groups {
			if mask&(1<<uint(gi)) == 0 {
				continue
			}
			for mi := range g.Members {
				b, ok := r.memberBlock(r.blockBufs[gi][mi][:0], gi, mi, g, sleep)
				r.blockBufs[gi][mi] = b
				if !ok {
					mask &^= 1 << uint(gi)
					stable = false
					break
				}
			}
			if !stable {
				break
			}
		}
		if stable {
			break
		}
	}
	inSorted := func(p memsim.PID) bool {
		if r.sym == nil {
			return false
		}
		g := r.sym.MemberGroup(p)
		return g >= 0 && mask&(1<<uint(g)) != 0
	}
	b := x.KeyBuf[:0]
	b = binary.AppendUvarint(b, mask)
	b = r.eng.AppendHeadKey(b)
	for a := 0; a < x.Mach.Size(); a++ {
		if mask != 0 {
			if ag, _, _, isRole := r.sym.RoleAddr(memsim.Addr(a)); isRole && mask&(1<<uint(ag)) != 0 {
				continue
			}
		}
		b = binary.AppendVarint(b, x.Mach.Load(memsim.Addr(a)))
	}
	for pid := 0; pid < x.N; pid++ {
		p := memsim.PID(pid)
		if inSorted(p) {
			continue
		}
		if addr, ok := x.Mach.LLState(p); ok {
			b = append(b, 1)
			b = binary.AppendUvarint(b, uint64(addr))
		} else {
			b = append(b, 0)
		}
	}
	b = r.eng.AppendGlobalKey(b)
	for pid := 0; pid < x.N; pid++ {
		p := memsim.PID(pid)
		if x.Scripts[p] == nil || inSorted(p) {
			continue
		}
		b = append(b, BoolBit(sleep&(1<<uint(p)) != 0), byte(x.Phase[p]))
		b = r.eng.AppendProcKey(b, p)
		b = x.AppendProcTail(b, p)
	}
	if r.rank != nil {
		for pid := range r.rank {
			r.rank[pid] = int32(pid)
		}
	}
	for gi, g := range groups {
		if mask&(1<<uint(gi)) == 0 {
			continue
		}
		r.blocks = r.blocks[:0]
		for mi := range g.Members {
			r.blocks = append(r.blocks, r.blockBufs[gi][mi])
		}
		ord := r.order[:len(r.blocks)]
		if memsim.SortBlockOrder(r.blocks, ord) {
			merged = true
		}
		for pos, mi := range ord {
			r.rank[g.Members[mi]] = int32(x.N + gi*x.N + pos)
		}
		b = memsim.AppendBlocksInOrder(b, r.blocks, ord)
	}
	b = r.eng.AppendTailKey(b)
	x.KeyBuf = b
	return memsim.HashKey128(b), merged
}

// RangeError reports a replayed prefix naming a choice its node does not
// have.
type RangeError struct{ Choice, Depth int }

func (e *RangeError) Error() string {
	return fmt.Sprintf("choice %d out of range at depth %d", e.Choice, e.Depth)
}

// Replay walks eng from its current position (normally the root) down
// prefix, choice index by choice index, and returns the sleep set of the
// node it reaches (0 when r is nil or sleep sets are off). Tasks, units
// and shards stay bare []int prefixes: the sleep set is recomputed
// deterministically from the indices alone, recomputing each node's
// reduced key on the way down to refresh the canonical ranks. The replay
// is pure positioning: it touches no counters and no claims.
func Replay(eng Engine, r *Reduction, prefix []int) (uint64, error) {
	x := eng.exec()
	var sleep uint64
	for depth, idx := range prefix {
		choices := eng.SettleAt(depth)
		if idx < 0 || idx >= len(choices) {
			return 0, &RangeError{Choice: idx, Depth: depth}
		}
		var earlier uint64
		if r.POR() {
			r.StateKey(sleep)
			earlier = r.EarlierMasks(depth, choices)[idx]
		}
		cAcc := x.Pending[choices[idx].PID]
		if err := eng.Step(choices[idx], idx); err != nil {
			return 0, err
		}
		sleep = r.ChildSleep(sleep, earlier, choices, idx, cAcc)
	}
	return sleep, nil
}
