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
	"repro/internal/telemetry"
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

// Checkpoint configures a durable exploration. Units run one at a time
// on a single worker, whatever Config.Workers says (it only fills the
// Result's Workers field), and snapshots follow the same write policy as
// search.Checkpoint: the shallow pass is written at once, committed
// units are staged and written once they have run at least ten times as
// long as the previous write took, when StopAfter is reached, on an
// interrupt seen between units, and at the end. A kill, or an interrupt
// inside a unit, loses the staged units, which a resumed run redoes.
type Checkpoint struct {
	// Path is the snapshot file (required).
	Path string
	// Tag folds a caller-side identity (the algorithm name) into the
	// fingerprint.
	Tag string
	// ShardDepth is the unit prefix depth. Zero means 3; the value is
	// clamped to MaxDepth-1.
	ShardDepth int
	// Resume loads the snapshot at Path instead of starting fresh.
	Resume bool
	// StopAfter, when positive, interrupts the run after that many units
	// committed in this invocation (deterministic kill for tests).
	StopAfter int
	// Interrupt, when non-nil, aborts the run when it becomes readable.
	// Seen between units it first writes the staged units; inside a unit
	// it writes nothing.
	Interrupt <-chan struct{}
}

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
	for pid := 0; pid < cfg.N; pid++ {
		script, ok := cfg.Scripts[memsim.PID(pid)]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "p%d:", pid)
		for _, k := range script {
			fmt.Fprintf(&b, "%d,", k)
		}
		b.WriteByte(';')
	}
	return b.String()
}

type xtally struct{ paths, truncated, deduped, slept, symMerges int }

func xgrab(w *searcher) xtally {
	return xtally{
		paths: w.paths, truncated: w.truncated, deduped: w.deduped,
		slept: w.stepsSlept, symMerges: w.symMerges,
	}
}

func xdelta(prev xtally, w *searcher) checkpoint.Counters {
	return checkpoint.Counters{
		Paths:           w.paths - prev.paths,
		Truncated:       w.truncated - prev.truncated,
		Deduped:         w.deduped - prev.deduped,
		StepsSlept:      w.stepsSlept - prev.slept,
		SymmetryMerges:  w.symMerges - prev.symMerges,
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
// pass enumerates units, units commit in order with snapshots between
// commits, and a killed run resumes to the byte-identical Result of an
// uninterrupted (or plain) run. Only the backtracking engines
// checkpoint; EngineReplay is rejected. Interruption (ck.Interrupt or
// ck.StopAfter) returns an error classified as errs.ClassInterrupt.
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
	var dedup, reduce bool
	switch cfg.Engine {
	case EngineBacktrack:
		dedup = false
	case EngineBacktrackDedup:
		dedup = true
	case EngineBacktrackDedupPOR:
		if !backtrackable(cfg) {
			return nil, errs.Failure(errs.CodeInvalid,
				"explore: EngineBacktrackDedupPOR requires a resumable instance")
		}
		dedup, reduce = true, true
	case EngineAuto:
		if !backtrackable(cfg) {
			return nil, errs.Failure(errs.CodeInvalid,
				"explore: checkpointing needs a resumable algorithm tier (replay engine cannot checkpoint)")
		}
		dedup = true
	default:
		return nil, errs.Failure(errs.CodeInvalid,
			"explore: engine "+cfg.Engine.String()+" cannot checkpoint")
	}
	engine := EngineBacktrack
	if reduce {
		engine = EngineBacktrackDedupPOR
	} else if dedup {
		engine = EngineBacktrackDedup
	}
	d := ck.ShardDepth
	if d <= 0 {
		d = 3
	}
	if max := cfg.MaxDepth - 1; d > max {
		d = max
	}
	if d < 0 {
		d = 0
	}
	fp := Fingerprint(ck.Tag, cfg, d, dedup, reduce)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Telemetry in checkpointed mode is write-granular, exactly as in
	// search (see internal/search/checkpointed.go): the engine runs
	// without a live registry (s.em stays nil) and tally deltas land on
	// the registry only when the write that persists their units — or
	// the shallow pass — commits.
	reg := cfg.Telemetry
	em := newEngineMetrics(reg)
	worksteal.NewMetrics(reg) // frontier families at zero (single-worker)
	ckm := checkpoint.NewMetrics(reg)
	unitNs := reg.Histogram("repro_unit_ns",
		1e5, 1e6, 1e7, 1e8, 1e9, 1e10)

	s := &search{cfg: cfg, workers: 1, reduce: reduce}
	if dedup {
		s.table = newDedupTable()
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

	counters := checkpoint.Counters{}
	var units [][]int
	var doneList []uint32
	doneSet := map[uint32]bool{}

	finish := func(err error) (*Result, error) {
		res := &Result{
			Engine:          engine,
			Workers:         workers,
			Paths:           counters.Paths,
			Truncated:       counters.Truncated,
			StatesDeduped:   counters.Deduped,
			StepsSlept:      counters.StepsSlept,
			SymmetryMerges:  counters.SymmetryMerges,
			MaxDepthReached: counters.MaxDepthReached,
		}
		return res, err
	}
	// interruptedOrFailed translates a unit's errStopped into the real
	// cause, mirroring runBacktrack's postlude.
	cause := func(fallback string) (*Result, error) {
		s.mu.Lock()
		ferr, fail := s.err, s.fail
		s.mu.Unlock()
		if ferr != nil {
			return finish(ferr)
		}
		if fail != nil {
			return finish(fmt.Errorf("explore: property failed on schedule %v: %w", fail.desc, fail.err))
		}
		return nil, errs.Interrupted(fallback)
	}

	// Units are staged between writes, telemetry included, exactly as in
	// search: a mid-unit abort leaves the registry at the last write.
	// The shallow pass's tally lands with the first write.
	written := w.telTally()
	if ck.Resume {
		snap, err := checkpoint.Read(ck.Path)
		if err != nil {
			return nil, err
		}
		if snap.Kind != checkpoint.KindExplore {
			return nil, errs.Failuref(errs.CodeConflict,
				"explore: %s is a %s snapshot", ck.Path, snap.Kind)
		}
		if snap.Fingerprint != fp {
			return nil, errs.Failuref(errs.CodeConflict,
				"explore: snapshot %s was written by a different configuration (%s, want %s)",
				ck.Path, snap.Fingerprint, fp)
		}
		counters = snap.Counters
		units = snap.Units
		doneList = snap.Done
		doneSet = snap.DoneSet()
		if s.table != nil {
			s.table.preload(snap.Entries)
		}
		// Continue the telemetry counters from the killed run's last
		// commit (monotone across resumes); a pre-v4 snapshot carries no
		// telemetry block, so seed the engine families from the
		// deterministic counters instead.
		if len(snap.Telemetry) > 0 {
			checkpoint.PreloadCounters(reg, snap.Telemetry)
		} else if reg != nil {
			reg.AddCounterValues([]telemetry.CounterValue{
				{Name: "repro_engine_paths_total", Value: int64(snap.Counters.Paths)},
				{Name: "repro_engine_truncated_total", Value: int64(snap.Counters.Truncated)},
				{Name: "repro_engine_deduped_total", Value: int64(snap.Counters.Deduped)},
				{Name: "repro_engine_sleep_prunes_total", Value: int64(snap.Counters.StepsSlept)},
				{Name: "repro_engine_symmetry_merges_total", Value: int64(snap.Counters.SymmetryMerges)},
			})
		}
	} else {
		// The shallow pass: everything above (and at) the shard depth is
		// counted and claimed now, once; the snapshot written below is the
		// only record of it a resumed run ever needs.
		prev := xgrab(w)
		if err := w.shallowPass(d, &units); err != nil {
			if errors.Is(err, errStopped) {
				return cause("explore: interrupted during shallow pass (nothing persisted)")
			}
			return nil, err
		}
		counters.Add(xdelta(prev, w))
	}

	ckc := checkpoint.NewCommitter(commitClock)
	persist := func() error {
		em.addTally(0, written, w.telTally(), w.e.UndoMax, w.maxDepth)
		written = w.telTally()
		snap := &checkpoint.Snapshot{
			Kind:        checkpoint.KindExplore,
			Fingerprint: fp,
			ShardDepth:  d,
			Units:       units,
			Done:        doneList,
			Counters:    counters,
		}
		if s.table != nil {
			snap.Entries = s.table.export()
		}
		// The write-instrumentation families necessarily lag one write
		// (the sample is taken inside the body this write persists);
		// the engine families are exact at every write.
		snap.Telemetry = checkpoint.SampleCounters(reg)
		snap.SortEntries()
		return ckm.Write(ck.Path, snap)
	}
	if !ck.Resume {
		if err := ckc.Write(persist); err != nil {
			return nil, err
		}
	}

	committed := 0
	for ui := range units {
		if doneSet[uint32(ui)] {
			continue
		}
		if s.stop.Load() {
			if err := ckc.Flush(persist); err != nil {
				return nil, err
			}
			return cause("explore: interrupted between units")
		}
		prev := xgrab(w)
		unitStart := ckc.Begin()
		if err := w.runUnit(task(units[ui])); err != nil {
			if errors.Is(err, errStopped) {
				// The staged units stay unwritten: the claim table now holds
				// the aborted unit's partial claims.
				return cause("explore: interrupted mid-unit")
			}
			return nil, err
		}
		counters.Add(xdelta(prev, w))
		unitNs.Observe(0, ckc.Commit(unitStart).Nanoseconds())
		doneList = append(doneList, uint32(ui))
		committed++
		if ck.StopAfter > 0 && committed >= ck.StopAfter {
			if err := ckc.Flush(persist); err != nil {
				return nil, err
			}
			return nil, errs.Interrupted(fmt.Sprintf("explore: stopped after %d units as requested", committed))
		}
		if ckc.Due() {
			if err := ckc.Write(persist); err != nil {
				return nil, err
			}
		}
	}
	if err := ckc.Flush(persist); err != nil {
		return nil, err
	}
	return finish(nil)
}

// commitClock is the clock the snapshot committer reads (nil means
// time.Now); tests replace it to pace writes deterministically.
var commitClock func() time.Time
