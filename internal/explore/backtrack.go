package explore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/memsim"
	"repro/internal/statespace"
)

// The backtracking engine keeps one live execution per worker for the
// whole exploration: a statespace.Exec, whose frames snapshot per tree
// node and whose shared memory winds back through the machine's undo log,
// so moving to a sibling schedule retracts one decision instead of
// replaying the prefix. With dedup enabled, a canonical hash of (machine
// words, LL reservations, frames, pending calls, script progress, monitor
// bits) claims each (state, remaining depth budget) pair exactly once
// across all workers; later arrivals prune their subtree.
//
// The engine emits exactly the events the Controller would: its settle
// order, call bookkeeping and sequence numbering replicate
// memsim.Controller and the replay engine's drive loop, which the
// engine-equivalence tests pin down (same Paths, Truncated and Check
// outcomes as EngineReplay when dedup is off).

// backtrackable reports whether every scripted (process, call) pair of cfg
// resolves to a resumable program, i.e. whether the backtracking engine can
// run the workload. Probing mints frames without executing them, so it has
// no side effects on a fresh deployment.
func backtrackable(cfg Config) bool {
	e, err := memsim.NewExecution(cfg.Factory, cfg.N)
	if err != nil {
		return false // let the replay engine surface the deployment error
	}
	defer e.Close()
	ri, ok := e.Instance().(memsim.ResumableInstance)
	if !ok {
		return false
	}
	for pid, script := range cfg.Scripts {
		probed := map[memsim.CallKind]bool{}
		for _, kind := range script {
			if probed[kind] {
				continue
			}
			probed[kind] = true
			if _, err := ri.ResumableProgram(pid, kind); err != nil {
				return false
			}
		}
	}
	return true
}

// bengine is the explorer's live execution: the shared substrate plus
// the trace so far, per-process call counts, the applied choices'
// descriptions, and the Specification 4.1 monitor bits.
type bengine struct {
	statespace.Exec
	calls  []int
	events []memsim.Event
	seq    int
	desc   []string // applied choices, for failure reports

	// Specification-monitor bits: the prefix facts Specification 4.1's
	// checker conditions on, folded into the dedup key so that two states
	// merge only when their spec-relevant pasts agree (a poll that began
	// after the first completed Signal must never merge with one that
	// began before it — "poll-false" distinguishes them).
	sigStarted  bool   // some Signal call has begun
	sigEnded    bool   // some Signal call has completed
	afterSigEnd []bool // per process: open call began after the first Signal completed

	// Hot-path scratch, reused node to node: per-(pid, kind) precomputed
	// choice descriptions and the free list of released node snapshots.
	// The pool's hit counts are telemetry only.
	descs [][4]string
	marks statespace.Pool[mark]
}

func newBengine(cfg Config) (*bengine, error) {
	e := &bengine{}
	if err := e.Init(cfg.Factory, cfg.N, cfg.Scripts, cfg.Faults); err != nil {
		if errors.Is(err, statespace.ErrNoResumableTier) {
			return nil, fmt.Errorf("explore: %v; use EngineReplay", err)
		}
		return nil, err
	}
	e.calls = make([]int, cfg.N)
	e.afterSigEnd = make([]bool, cfg.N)
	e.descs = make([][4]string, cfg.N)
	for pid := range e.descs {
		e.descs[pid] = [4]string{
			fmt.Sprintf("p%d", pid), fmt.Sprintf("p%d+", pid),
			fmt.Sprintf("p%d!", pid), fmt.Sprintf("p%d?", pid),
		}
	}
	return e, nil
}

func (e *bengine) emit(ev memsim.Event) {
	ev.Seq = e.seq
	e.seq++
	e.events = append(e.events, ev)
}

// endCalls emits the call-end event of every call that completed since
// the last settle, in PID order (eagerly, so call-end events get the
// earliest consistent position, exactly like the replay engine), and
// latches the first Signal completion.
func (e *bengine) endCalls() {
	for pid, ph := range e.Phase {
		if ph != statespace.Done {
			continue
		}
		p := memsim.PID(pid)
		e.emit(memsim.Event{
			Kind: memsim.EvCallEnd, PID: p, CallSeq: e.calls[p] - 1,
			Proc: e.Kinds[p].String(), Ret: e.Rets[p],
		})
		if e.Kinds[p] == memsim.CallSignal {
			e.sigEnded = true
		}
	}
}

// Settle and SettleAt are the substrate's, after the call-end events.
func (e *bengine) Settle() []choice {
	e.endCalls()
	return e.Exec.Settle()
}

func (e *bengine) SettleAt(depth int) []choice {
	e.endCalls()
	return e.Exec.SettleAt(depth)
}

// Step performs one scheduling decision on the substrate and logs it:
// the event the Controller would emit, the call bookkeeping, the monitor
// bits and the choice's description.
func (e *bengine) Step(c choice, idx int) error {
	acc, res, err := e.Apply(c, idx)
	if err != nil {
		return fmt.Errorf("explore: %w", err)
	}
	p := c.PID
	switch {
	case c.Fault == memsim.FaultCrash:
		// Mirror Controller.Crash: the call count rewinds so the restart
		// reuses its CallSeq.
		e.calls[p]--
		e.emit(memsim.Event{
			Kind: memsim.EvCrash, PID: p, CallSeq: e.calls[p],
			Proc: e.Kinds[p].String(), Fault: memsim.FaultCrash,
		})
		e.desc = append(e.desc, e.descs[p][2])
	case c.Start:
		kind := e.Kinds[p]
		e.afterSigEnd[p] = e.sigEnded
		if kind == memsim.CallSignal {
			e.sigStarted = true
		}
		e.emit(memsim.Event{Kind: memsim.EvCallStart, PID: p, CallSeq: e.calls[p], Proc: kind.String()})
		e.calls[p]++
		e.desc = append(e.desc, e.descs[p][1])
	default:
		// A lost CAS's event carries the true result plus the fault
		// marker.
		e.emit(memsim.Event{
			Kind: memsim.EvAccess, PID: p, CallSeq: e.calls[p] - 1,
			Proc: e.Kinds[p].String(), Acc: acc, Res: res, Fault: c.Fault,
		})
		if c.Fault == memsim.FaultLostCAS {
			e.desc = append(e.desc, e.descs[p][3])
		} else {
			e.desc = append(e.desc, e.descs[p][0])
		}
	}
	return nil
}

// mark is one node's snapshot: the substrate's, plus the call counts,
// the monitor bits, and the high-water marks of the event and
// description logs.
type mark struct {
	statespace.Mark
	calls       []int
	afterSigEnd []bool
	events      int
	seq         int
	desc        int
	sigStarted  bool
	sigEnded    bool
}

func (e *bengine) save() *mark {
	m := e.marks.Get()
	e.Save(&m.Mark)
	m.calls = append(m.calls[:0], e.calls...)
	m.afterSigEnd = append(m.afterSigEnd[:0], e.afterSigEnd...)
	m.events, m.seq, m.desc = len(e.events), e.seq, len(e.desc)
	m.sigStarted, m.sigEnded = e.sigStarted, e.sigEnded
	return m
}

// release returns a mark to the free list once no sibling will restore
// from it again.
func (e *bengine) release(m *mark) { e.marks.Put(m) }

// restore winds the engine back to m; the mark stays pristine for
// further siblings.
func (e *bengine) restore(m *mark) {
	e.Restore(&m.Mark)
	copy(e.calls, m.calls)
	copy(e.afterSigEnd, m.afterSigEnd)
	e.events = e.events[:m.events]
	e.seq = m.seq
	e.desc = e.desc[:m.desc]
	e.sigStarted, e.sigEnded = m.sigStarted, m.sigEnded
}

// stateKey hashes the canonical post-settle state: machine word values and
// will-succeed LL reservations (version counters and writer history do not
// affect future behavior), the specification-monitor bits (two states with
// different spec-relevant pasts must never merge), the fault budget used,
// plus each scripted process's phase, call count, script position, pending
// access and frame (memsim.AppendKeyFrameState). The encoding is built
// into the engine's reusable scratch buffer and hashed through the inlined
// 128-bit FNV (memsim.HashKey128) — no allocation per node — and it
// induces exactly the partition of the legacy text walk kept as the
// differential-test oracle: every component is self-delimiting and renders
// the same canonical facts.
func (e *bengine) stateKey() [16]byte {
	b := e.Mach.AppendKeyState(e.KeyBuf[:0])
	b = e.AppendGlobalKey(b)
	for pid := 0; pid < e.N; pid++ {
		p := memsim.PID(pid)
		if e.Scripts[p] == nil {
			continue
		}
		b = append(b, byte(e.Phase[p]))
		b = e.AppendProcKey(b, p)
		b = e.AppendProcTail(b, p)
	}
	e.KeyBuf = b
	return memsim.HashKey128(b)
}

// AppendHeadKey appends nothing: the explorer's fields follow memory.
func (e *bengine) AppendHeadKey(b []byte) []byte { return b }

// AppendGlobalKey appends the specification-monitor bits and the fault
// budget used.
func (e *bengine) AppendGlobalKey(b []byte) []byte {
	b = append(b, statespace.BoolBit(e.sigStarted)|statespace.BoolBit(e.sigEnded)<<1)
	return e.AppendFaultsKey(b)
}

// AppendProcKey appends p's open-call-after-first-Signal bit and its call
// count.
func (e *bengine) AppendProcKey(b []byte, p memsim.PID) []byte {
	b = append(b, statespace.BoolBit(e.Phase[p] != statespace.Idle && e.afterSigEnd[p]))
	return binary.AppendUvarint(b, uint64(e.calls[p]))
}

// AppendTailKey appends nothing: the explorer's key ends with the
// process sections.
func (e *bengine) AppendTailKey(b []byte) []byte { return b }

// runBacktrack lives in parallel.go: the backtracking DFS is driven by a
// worker pool (of size one and up) sharding the schedule tree over a
// work-stealing frontier.
