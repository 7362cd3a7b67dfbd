package search

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/statespace"
)

// The exhaustive engine keeps one live execution per worker for the whole
// search, exactly like the explorer's backtracking engine: a
// statespace.Exec, whose frames snapshot per tree node and whose shared
// memory rewinds through the machine's undo log. What search adds is the
// cost dimension — a model accumulator rides along the current path, is
// fed every access as it is applied, and is forked into each node
// snapshot so backtracking rewinds the pricing state too.

// choice is one scheduling decision (see statespace.Choice).
type choice = statespace.Choice

// sengine is the searcher's live execution: the shared substrate plus the
// priced path so far.
type sengine struct {
	statespace.Exec

	// acc prices the current path; cost is its running RMR total (the
	// objective). Both rewind via node snapshots.
	acc  model.Accumulator
	cost int

	// Hot-path scratch, reused node to node: the free list of released
	// node snapshots (its hit counts are telemetry only) and the fallback
	// render target for non-appending models.
	marks  statespace.Pool[mark]
	encBuf bytes.Buffer
}

func newSengine(cfg Config) (*sengine, error) {
	e := &sengine{}
	if err := e.Init(cfg.Factory, cfg.N, cfg.Scripts, cfg.Faults); err != nil {
		if errors.Is(err, statespace.ErrNoResumableTier) {
			return nil, fmt.Errorf("search: %v; exhaustive search needs one (use ModeSample)", err)
		}
		return nil, err
	}
	acc := cfg.Model.Begin(cfg.N, e.Mach.Owner)
	if _, ok := acc.(model.ForkableAccumulator); !ok {
		return nil, fmt.Errorf("search: %s accumulator %T cannot fork; exhaustive search needs model.ForkableAccumulator (use ModeSample)",
			cfg.Model.Name(), acc)
	}
	if _, ok := acc.(model.ModelStateEncoder); !ok {
		return nil, fmt.Errorf("search: %s accumulator %T has no canonical state encoding; exhaustive search needs model.ModelStateEncoder (use ModeSample)",
			cfg.Model.Name(), acc)
	}
	e.acc = acc
	return e, nil
}

// apply performs one scheduling decision on the substrate and prices it:
// starting a call costs nothing; an applied access is fed to the
// accumulator and its RMR verdict added to the running path cost. It
// returns the step's RMR cost (0 or 1).
func (e *sengine) apply(c choice, idx int) (int, error) {
	acc, res, err := e.Apply(c, idx)
	if err != nil {
		return 0, fmt.Errorf("search: %w", err)
	}
	if c.Start || c.Fault == memsim.FaultCrash {
		// A crash itself performs no memory access, so it costs 0 RMRs;
		// its price is the restarted call's re-executed steps.
		return 0, nil
	}
	// A lost CAS is priced as the real CAS memory applied: the
	// accumulator sees the true event.
	cost := e.acc.Add(memsim.Event{
		Kind: memsim.EvAccess, PID: c.PID, Proc: e.Kinds[c.PID].String(),
		Acc: acc, Res: res, Fault: c.Fault,
	})
	if !cost.RMR {
		return 0, nil
	}
	e.cost++
	return 1, nil
}

// Step is apply for statespace.Engine, which has no use for the cost.
func (e *sengine) Step(c choice, idx int) error {
	_, err := e.apply(c, idx)
	return err
}

// mark is one node's snapshot: the substrate's, plus the forked pricing
// state. The retained accumulator is the fork target of the next save
// into the same mark.
type mark struct {
	statespace.Mark
	acc  model.Accumulator
	cost int
}

// forkAcc forks src, recycling spare's backing storage when the model
// supports it (both architecture models do).
func forkAcc(src, spare model.Accumulator) model.Accumulator {
	if r, ok := src.(model.ReusingForker); ok {
		return r.ForkReuse(spare)
	}
	return src.(model.ForkableAccumulator).Fork()
}

func (e *sengine) save() *mark {
	m := e.marks.Get()
	e.Save(&m.Mark)
	m.acc = forkAcc(e.acc, m.acc)
	m.cost = e.cost
	return m
}

// release returns a mark to the free list once no sibling will restore
// from it again.
func (e *sengine) release(m *mark) { e.marks.Put(m) }

// restore winds the engine back to m. The accumulator is re-forked from
// the mark — into the engine's discarded accumulator, which is exactly
// the spare storage the fork wants — so the mark stays pristine for
// further siblings.
func (e *sengine) restore(m *mark) {
	e.Restore(&m.Mark)
	e.acc = forkAcc(m.acc, e.acc)
	e.cost = m.cost
}

// stateKey hashes the canonical post-settle state: machine word values,
// will-succeed LL reservations, the fault budget used, each scripted
// process's phase, in-flight call kind, script position, pending access
// and frame (memsim.AppendKeyFrameState) — and, unlike the explorer's
// key, the cost model's canonical mutable state (the CC cache contents),
// because the maximal tail cost from a node is a function of machine
// state AND pricing state. What the key deliberately omits: the
// accumulated path cost (a memoized tail is exact for any prefix cost —
// that is the cut's whole power), per-process call counts (they only
// number trace events) and the explorer's specification-monitor bits
// (costs are prefix-insensitive, so merging histories with different
// spec-relevant pasts is sound here). 128-bit FNV keeps accidental
// collisions out of reach for any bounded search. The key is built into
// the reusable scratch buffer and hashed through the inlined FNV
// (memsim.HashKey128) — no allocation per node — and it induces exactly
// the partition of the legacy text walk kept as the differential-test
// oracle.
func (e *sengine) stateKey() [16]byte {
	b := e.Mach.AppendKeyState(e.KeyBuf[:0])
	b = e.AppendFaultsKey(b)
	for pid := 0; pid < e.N; pid++ {
		p := memsim.PID(pid)
		if e.Scripts[p] == nil {
			continue
		}
		b = append(b, byte(e.Phase[p]))
		b = e.AppendProcKey(b, p)
		b = e.AppendProcTail(b, p)
	}
	b = e.AppendTailKey(b)
	e.KeyBuf = b
	return memsim.HashKey128(b)
}

// AppendHeadKey appends the fault budget used: the searcher's reduced
// keys have always carried it right after the sorted-mask prefix.
func (e *sengine) AppendHeadKey(b []byte) []byte { return e.AppendFaultsKey(b) }

// AppendGlobalKey appends nothing: the search has no specification
// monitor.
func (e *sengine) AppendGlobalKey(b []byte) []byte { return b }

// AppendProcKey appends p's in-flight call kind, which drives the
// poll-stop rule (0 when idle).
func (e *sengine) AppendProcKey(b []byte, p memsim.PID) []byte {
	kind := memsim.CallKind(0)
	if e.Phase[p] != statespace.Idle {
		kind = e.Kinds[p]
	}
	return append(b, byte(kind))
}

// AppendTailKey appends the cost model's canonical pricing state.
func (e *sengine) AppendTailKey(b []byte) []byte {
	if app, ok := e.acc.(model.ModelStateAppender); ok {
		return app.AppendModelState(b)
	}
	e.encBuf.Reset()
	e.acc.(model.ModelStateEncoder).EncodeModelState(&e.encBuf)
	return append(b, e.encBuf.Bytes()...)
}
