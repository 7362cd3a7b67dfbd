package explore

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/memsim"
	"repro/internal/worksteal"
)

// Checkpointed exploration mirrors the search's unit decomposition (see
// internal/search/checkpointed.go), with one structural difference:
// exploration has no bottom-up answer to assemble, so the shallow tree
// is processed FIRST — a single shallow pass runs the ordinary counting
// DFS down to the shard depth, claiming and counting exactly as the
// plain engine would, and emits each internal shard-depth node it wins
// as one unit. Units then commit sequentially (replay the prefix purely,
// expand the children — the unit root itself was already counted and
// claimed by the shallow pass), with snapshots of the claim table and
// counters between commits on the measured write cadence. The persisted
// unit list doubles as the record of the shallow pass: a resumed run
// never re-runs it, which is what keeps every claim and every tally
// exactly-once across kills.
//
// The equivalence argument is the explorer's own worker-independence
// argument re-applied: the explored set is the set of distinct
// (canonical state, budget) pairs reachable from the root — a function
// of the configuration — and each counter counts tree edges into that
// set, so any partition of the traversal that preserves claim-once
// reproduces the plain Result exactly. Failing runs are the exception:
// a property violation aborts mid-traversal, so its partial counters
// (though not the violation itself) depend on the decomposition.

// Checkpoint configures a durable exploration; checkpoint.Options
// documents the fields and the write policy, which is search's with one
// addition: the shallow pass is written at once. Config.Workers only
// fills the Result's Workers field: units run one at a time on a single
// worker.
type Checkpoint = checkpoint.Options

// Fingerprint renders the configuration identity an exploration
// snapshot is bound to. The resolved engine is included: dedup and
// reduction change every counter, so the regimes must never resume into
// each other.
func Fingerprint(tag string, cfg Config, shardDepth int, dedup, reduce bool) string {
	engine := EngineBacktrack
	if reduce {
		engine = EngineBacktrackDedupPOR
	} else if dedup {
		engine = EngineBacktrackDedup
	}
	var b strings.Builder
	fmt.Fprintf(&b, "explore|%s|n=%d|depth=%d|engine=%s|shard=%d|scripts=",
		tag, cfg.N, cfg.MaxDepth, engine, shardDepth)
	if cfg.Faults.Enabled() {
		// Fault configs must never resume into fault-free snapshots (or
		// vice versa): the marker is appended only when enabled, keeping
		// k=0 fingerprints byte-identical to pre-fault ones.
		fmt.Fprintf(&b, "faults[%s]|", cfg.Faults)
	}
	b.WriteString(checkpoint.FingerprintScripts(cfg.N, cfg.Scripts))
	return b.String()
}

// counters reports the searcher's cumulative deterministic tallies.
func (w *searcher) counters() checkpoint.Counters {
	return checkpoint.Counters{
		Paths:           w.paths,
		Truncated:       w.truncated,
		Deduped:         w.deduped,
		StepsSlept:      w.stepsSlept,
		SymmetryMerges:  w.symMerges,
		MaxDepthReached: w.maxDepth,
	}
}

// shallowPass runs the counting DFS from the root down to shard depth d,
// behaving at every node exactly like the plain engine — leaves count
// and check, internal nodes claim (losing arrivals dedup) — except that
// a won internal node AT depth d becomes a unit instead of recursing.
func (w *searcher) shallowPass(d int, units *[][]int) error {
	por := w.red.POR()
	var walk func(depth int, sleep uint64) error
	walk = func(depth int, sleep uint64) error {
		if w.s.stop.Load() {
			return errStopped
		}
		if depth > w.maxDepth {
			w.maxDepth = depth
		}
		choices := w.e.SettleAt(depth)
		if len(choices) == 0 || depth >= w.s.cfg.MaxDepth {
			w.paths++
			if len(choices) != 0 {
				w.truncated++
			}
			if err := w.s.cfg.Check(w.e.events); err != nil {
				w.s.recordFailure(w.e.Path, w.e.desc, err)
				return errStopped
			}
			return nil
		}
		if w.s.table != nil {
			var key [16]byte
			if w.red != nil {
				var permuted bool
				key, permuted = w.red.StateKey(sleep)
				if permuted {
					w.symMerges++
				}
			} else {
				key = w.e.stateKey()
			}
			if !w.s.table.claim(key, w.s.cfg.MaxDepth-depth) {
				w.deduped++
				return nil
			}
		}
		if depth == d {
			*units = append(*units, append([]int(nil), w.e.Path...))
			return nil
		}
		var earlier []uint64
		if por {
			earlier = w.red.EarlierMasks(depth, choices)
		}
		m := w.e.save()
		for i, c := range choices {
			if por && c.Sleeps(sleep) {
				w.stepsSlept++
				continue
			}
			var cAcc memsim.Access
			if por {
				cAcc = w.e.Pending[c.PID]
			}
			if err := w.e.Step(c, i); err != nil {
				return err
			}
			var childSleep uint64
			if por {
				childSleep = w.red.ChildSleep(sleep, earlier[i], choices, i, cAcc)
			}
			if err := walk(depth+1, childSleep); err != nil {
				return err
			}
			w.e.restore(m)
		}
		w.e.release(m)
		return nil
	}
	return walk(0, 0)
}

// runUnit replays the unit's prefix (pure positioning) and expands its
// children. The unit root was counted, claimed and (if failing) checked
// by the shallow pass, so the expansion starts one level below it.
func (w *searcher) runUnit(t task) error {
	sleep, err := w.replay(t, "unit")
	if err != nil {
		return err
	}
	por := w.red.POR()
	choices := w.e.SettleAt(len(t))
	var earlier []uint64
	if por {
		// The unit root was claimed by the shallow pass; recompute its key
		// here only to refresh the canonical ranks for the child loop.
		w.red.StateKey(sleep)
		earlier = w.red.EarlierMasks(len(t), choices)
	}
	m := w.e.save()
	for i, c := range choices {
		if por && c.Sleeps(sleep) {
			w.stepsSlept++
			continue
		}
		var cAcc memsim.Access
		if por {
			cAcc = w.e.Pending[c.PID]
		}
		if err := w.e.Step(c, i); err != nil {
			return err
		}
		var childSleep uint64
		if por {
			childSleep = w.red.ChildSleep(sleep, earlier[i], choices, i, cAcc)
		}
		if err := w.dfs(len(t)+1, childSleep); err != nil {
			return err
		}
		w.e.restore(m)
	}
	w.e.release(m)
	return nil
}

// RunCheckpointed runs a backtracking exploration durably: a shallow
// pass enumerates the units and is written at once, then the units
// commit through checkpoint.Run (which resumes from, and writes, the
// snapshot at ck.Path), so a killed run resumes to the byte-identical
// Result of an uninterrupted (or plain) run. Only the backtracking
// engines checkpoint; EngineReplay is rejected. Interruption
// (ck.Interrupt or ck.StopAfter) returns an error classified as
// errs.ClassInterrupt.
func RunCheckpointed(cfg Config, ck Checkpoint) (*Result, error) {
	if cfg.Factory == nil || cfg.Check == nil {
		return nil, errors.New("explore: config requires Factory and Check")
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if ck.Path == "" {
		return nil, errs.Failure(errs.CodeInvalid, "explore: checkpoint requires a path")
	}
	engine := cfg.Engine
	switch engine {
	case EngineBacktrack, EngineBacktrackDedup:
	case EngineBacktrackDedupPOR:
		if !backtrackable(cfg) {
			return nil, errs.Failure(errs.CodeInvalid,
				"explore: EngineBacktrackDedupPOR requires a resumable instance")
		}
	case EngineAuto:
		if !backtrackable(cfg) {
			return nil, errs.Failure(errs.CodeInvalid,
				"explore: checkpointing needs a resumable algorithm tier (replay engine cannot checkpoint)")
		}
		engine = EngineBacktrackDedup
	default:
		return nil, errs.Failure(errs.CodeInvalid,
			"explore: engine "+cfg.Engine.String()+" cannot checkpoint")
	}
	dedup, reduce := engine != EngineBacktrack, engine == EngineBacktrackDedupPOR
	d := checkpoint.ClampShardDepth(ck.ShardDepth, cfg.MaxDepth)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The unit list comes from the shallow pass, or on resume from the
	// snapshot, which is the only record of that pass.
	run := &checkpoint.Run{
		Options: ck,
		Snap: checkpoint.Snapshot{Kind: checkpoint.KindExplore,
			Fingerprint: Fingerprint(ck.Tag, cfg, d, dedup, reduce), ShardDepth: d},
		Registry: cfg.Telemetry,
		Clock:    commitClock,
	}
	if err := run.Open(); err != nil {
		return nil, err
	}

	// Telemetry in checkpointed mode is write-granular, exactly as in
	// search (see internal/search/checkpointed.go): the engine runs
	// without a live registry (s.em stays nil) and tally deltas land on
	// the registry only when the write that persists their units — or
	// the shallow pass — commits.
	em := newEngineMetrics(cfg.Telemetry)
	worksteal.NewMetrics(cfg.Telemetry) // frontier families at zero (single-worker)

	s := &search{cfg: cfg, workers: 1, reduce: reduce}
	if dedup {
		s.table = newDedupTable()
		s.table.preload(run.Snap.Entries)
	}
	if ck.Interrupt != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ck.Interrupt:
				s.stop.Store(true)
			case <-finished:
			}
		}()
	}
	w, err := newSearcher(s, 0)
	if err != nil {
		return nil, err
	}

	// finish reports the committed counters; when a unit stopped on a
	// property violation (or an engine error), the error names that cause
	// instead of the interrupt, mirroring runBacktrack's postlude.
	finish := func(err error) (*Result, error) {
		s.mu.Lock()
		ferr, fail := s.err, s.fail
		s.mu.Unlock()
		if ferr != nil {
			err = ferr
		} else if fail != nil {
			err = fmt.Errorf("explore: property failed on schedule %v: %w", fail.desc, fail.err)
		} else if err != nil {
			return nil, err
		}
		c := run.Snap.Counters
		return &Result{
			Engine:          engine,
			Workers:         workers,
			Paths:           c.Paths,
			Truncated:       c.Truncated,
			StatesDeduped:   c.Deduped,
			StepsSlept:      c.StepsSlept,
			SymmetryMerges:  c.SymmetryMerges,
			MaxDepthReached: c.MaxDepthReached,
		}, err
	}

	// The shallow pass's tally lands with the first write.
	written := w.telTally()
	run.Stage = func() []checkpoint.Entry {
		em.addTally(0, written, w.telTally(), w.e.UndoMax, w.maxDepth)
		written = w.telTally()
		if s.table == nil {
			return nil
		}
		return s.table.export()
	}
	if !ck.Resume {
		// The shallow pass: everything above (and at) the shard depth is
		// counted and claimed now, once; the snapshot written below is the
		// only record of it a resumed run ever needs.
		if err := w.shallowPass(d, &run.Snap.Units); err != nil {
			if errors.Is(err, errStopped) {
				return finish(errs.Interrupted("explore: interrupted during shallow pass (nothing persisted)"))
			}
			return nil, err
		}
		run.Snap.Counters = w.counters()
		if err := run.Write(); err != nil {
			return nil, err
		}
	}
	return finish(run.CommitUnits(func(i int) error {
		err := w.runUnit(task(run.Snap.Units[i]))
		if errors.Is(err, errStopped) {
			return errs.Interrupted("explore: interrupted mid-unit")
		}
		return err
	}, w.counters, s.stop.Load))
}

// commitClock is the clock the snapshot committer reads (nil means
// time.Now); tests replace it to pace writes deterministically.
var commitClock func() time.Time
