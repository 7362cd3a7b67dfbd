package search

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/model"
	"repro/internal/statespace"
	"repro/internal/worksteal"
)

// Checkpointed execution: the same branch-and-bound search, partitioned
// into a deterministic sequence of units — the internal tree nodes at a
// fixed shard depth, each processed as a prefetch task against the
// shared memo table — followed by one spine pass from the root that
// computes the shallow tree and links the memoized units into the final
// answer. Snapshots are written only between committed units, so a
// snapshot always holds a consistent table (every entry fully computed)
// plus the exact counter deltas of the units it lists; a resumed run
// replays nothing, skips those units, and finishes with a Result
// byte-identical to an uninterrupted run's.
//
// Why the totals cannot drift across kills: every Result field is
// traversal-order-independent. Each (canonical state, budget) node is
// claimed and computed exactly once across the whole decomposed run (the
// table persists across units), each DAG edge is walked exactly once by
// the node that owns its parent, Paths counts edges into leaves, and
// Pruned counts edge arrivals at already-adopted nodes — all functions
// of the configuration alone, exactly the argument that already makes
// the in-memory search worker-count-independent (see exhaustive.go).
// Unit roots are claimed as prefetch visits (never adopted, never
// counted), so the partition itself leaves no fingerprint in the tallies.

// Checkpoint configures a durable run; checkpoint.Options documents the
// fields and the write policy. Config.Workers only fills the Result's
// Workers field: units run one at a time on a single worker.
type Checkpoint = checkpoint.Options

// Fingerprint renders the configuration identity a snapshot is bound to.
// Everything that determines the search space is included — algorithm
// tag, process count, scripts, depth bound, model, shard depth — and the
// sharded (fresh-table-per-unit) counter regime is marked distinctly so
// its snapshots cannot resume into a shared-table run or vice versa. A
// reduced run (Config.Reduce with a capable model) is likewise marked:
// its memo entries key (state, sleep) pairs and carry no tails, so they
// must never seed an unreduced table or vice versa.
func Fingerprint(tag string, cfg Config, shardDepth int, sharded bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "search|%s|n=%d|depth=%d|model=%s|shard=%d|scripts=%s",
		tag, cfg.N, cfg.MaxDepth, cfg.Model.Name(), shardDepth,
		checkpoint.FingerprintScripts(cfg.N, cfg.Scripts))
	if cfg.Faults.Enabled() {
		// A fault-enabled search explores a strictly larger schedule space
		// and keys its memo entries with the consumed fault budget, so its
		// snapshots must never resume into a fault-free run or vice versa
		// (and distinct policies must never cross-seed each other).
		fmt.Fprintf(&b, "|faults[%s]", cfg.Faults)
	}
	if sharded {
		b.WriteString("|sharded")
	}
	if reduceEffective(cfg) {
		b.WriteString("|reduce")
	}
	return b.String()
}

// reduceEffective reports whether cfg actually runs the reduced regime:
// Reduce requested and the model asserts at least one of the reduction
// capabilities (otherwise newReduction degrades to the plain engine).
func reduceEffective(cfg Config) bool {
	return cfg.Reduce &&
		(model.OrderInvariantCost(cfg.Model) || model.PermutationInvariantCost(cfg.Model))
}

// ExpandUnits enumerates the units of cfg at shardDepth: the choice
// prefixes of every internal tree node at exactly that depth, in
// lexicographic order. Leaves above the shard depth carry no unit (the
// spine pass scores them). The enumeration is a pure expansion — no
// table, no counters — so coordinator and workers can re-derive the
// identical list independently.
func ExpandUnits(cfg Config, shardDepth int) ([][]int, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	return expandUnits(cfg, checkpoint.ClampShardDepth(shardDepth, cfg.MaxDepth))
}

func expandUnits(cfg Config, d int) ([][]int, error) {
	e, err := newSengine(cfg)
	if err != nil {
		return nil, err
	}
	// The expansion mirrors the reduced tree exactly: a slept child is
	// never a unit root (the search never walks it), so the unit list —
	// like everything else — is a pure function of the configuration.
	var red *statespace.Reduction
	if cfg.Reduce {
		red = newReduction(e, cfg.Model)
	}
	por := red.POR()
	var units [][]int
	var walk func(depth int, prefix []int, sleep uint64) error
	walk = func(depth int, prefix []int, sleep uint64) error {
		choices := e.SettleAt(depth)
		if len(choices) == 0 || cfg.MaxDepth-depth == 0 {
			return nil
		}
		if depth == d {
			units = append(units, append([]int(nil), prefix...))
			return nil
		}
		var earlier []uint64
		if por {
			red.StateKey(sleep)
			earlier = red.EarlierMasks(depth, choices)
		}
		m := e.save()
		for i, c := range choices {
			if por && c.Sleeps(sleep) {
				continue
			}
			cAcc := e.Pending[c.PID]
			if _, err := e.apply(c, i); err != nil {
				return err
			}
			var childSleep uint64
			if por {
				childSleep = red.ChildSleep(sleep, earlier[i], choices, i, cAcc)
			}
			if err := walk(depth+1, append(prefix, i), childSleep); err != nil {
				return err
			}
			e.restore(m)
		}
		e.release(m)
		return nil
	}
	if err := walk(0, nil, 0); err != nil {
		return nil, err
	}
	return units, nil
}

// export drains the table into checkpoint entries (every entry must be
// complete, which holds between units: no worker is running). Entries
// alias the published tails, which are immutable.
func (t *memoTable) export() []checkpoint.Entry {
	var out []checkpoint.Entry
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for _, sl := range s.slots {
			if sl.budget == 0 {
				continue
			}
			out = append(out, checkpoint.Entry{
				State:   sl.state,
				Budget:  int(sl.budget) - 1,
				Cost:    sl.entry.cost,
				Tail:    sl.entry.tail,
				Adopted: sl.entry.adopted,
			})
		}
		s.mu.Unlock()
	}
	return out
}

// preload seeds the table with persisted entries, born complete, so
// arrivals read them like any other finished claim (no waiter ever
// materializes their done channel).
func (t *memoTable) preload(entries []checkpoint.Entry) {
	for _, en := range entries {
		key := memoKey{state: en.State, budget: en.Budget}
		s := &t.stripes[stripeOf(key)]
		s.mu.Lock()
		e := s.alloc()
		e.cost = en.Cost
		e.tail = append([]int(nil), en.Tail...)
		e.adopted = en.Adopted
		e.complete.Store(true)
		s.insert(key, e)
		s.mu.Unlock()
	}
}

// RunCheckpointed runs the exhaustive search durably: it expands the
// units, commits them through checkpoint.Run (which resumes from, and
// writes, the snapshot at ck.Path), then runs the spine pass, so an
// interrupted run resumes to the byte-identical Result an uninterrupted
// run produces. An interruption (ck.Interrupt, or the deterministic
// ck.StopAfter) returns an error classified as errs.ClassInterrupt.
func RunCheckpointed(cfg Config, ck Checkpoint) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Mode != ModeExhaustive {
		return nil, errs.Failure(errs.CodeInvalid,
			"search: only exhaustive mode checkpoints (sample walks are cheap to rerun)")
	}
	if ck.Path == "" {
		return nil, errs.Failure(errs.CodeInvalid, "search: checkpoint requires a path")
	}
	d := checkpoint.ClampShardDepth(ck.ShardDepth, cfg.MaxDepth)
	units, err := expandUnits(cfg, d)
	if err != nil {
		return nil, err
	}
	run := &checkpoint.Run{
		Options: ck,
		Snap: checkpoint.Snapshot{Kind: checkpoint.KindSearch,
			Fingerprint: Fingerprint(ck.Tag, cfg, d, false), ShardDepth: d, Units: units},
		Registry: cfg.Telemetry,
		Meter:    cfg.Meter,
		Clock:    commitClock,
	}
	if err := run.Open(); err != nil {
		return nil, err
	}

	// Telemetry in checkpointed mode is write-granular: the engine runs
	// without a live registry (s.em stays nil, so the per-1024-node flush
	// path is off) and tally deltas land on the registry only when the
	// write that persists their units commits. That is what makes the
	// persisted counters exact across kills: a mid-unit abort leaves the
	// registry exactly at the last write, matching the snapshot a
	// resumed run preloads from.
	em := newEngineMetrics(cfg.Telemetry)
	worksteal.NewMetrics(cfg.Telemetry) // frontier families at zero (single-worker)

	s := &bnb{cfg: cfg, workers: 1, table: newMemoTable(), abort: make(chan struct{})}
	s.live = cfg.Meter != nil
	s.table.preload(run.Snap.Entries)
	if ck.Interrupt != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ck.Interrupt:
				s.stop.Do(func() { close(s.abort) })
			case <-finished:
			}
		}()
	}
	w, err := newHunter(s, 0)
	if err != nil {
		return nil, err
	}

	written := w.telTally()
	run.Stage = func() []checkpoint.Entry {
		em.addTally(0, written, w.telTally(), w.e.UndoMax, w.maxDepth)
		written = w.telTally()
		return s.table.export()
	}
	err = run.CommitUnits(func(i int) error {
		err := w.runTask(task(units[i]))
		if errors.Is(err, errStopped) {
			return errs.Interrupted("search: interrupted mid-unit")
		}
		return err
	}, w.counters, s.stopped)
	if err != nil {
		return nil, err
	}

	// The spine pass: compute the tree above the shard depth from the
	// root, adopting the memoized units. Its counters complete the totals
	// but are never persisted — a run killed mid-spine resumes from the
	// all-units-done snapshot and just redoes this (cheap) pass.
	prevTel := w.telTally()
	if err := w.spine(&run.Snap.Counters); err != nil {
		return nil, err
	}
	em.addTally(0, prevTel, w.telTally(), w.e.UndoMax, w.maxDepth)
	return w.result(run.Snap.Counters)
}

// counters reports the hunter's cumulative deterministic tallies.
func (w *hunter) counters() checkpoint.Counters {
	return checkpoint.Counters{
		Paths:           w.paths,
		Truncated:       w.truncated,
		Pruned:          w.pruned,
		StepsSlept:      w.stepsSlept,
		SymmetryMerges:  w.symMerges,
		MaxDepthReached: w.maxDepth,
	}
}

// spine runs the pass from the root that computes the tree above the
// shard depth, adopting the memoized units, and adds its tallies to
// counters.
func (w *hunter) spine(counters *checkpoint.Counters) error {
	prev := w.counters()
	if err := w.runTask(task{}); err != nil {
		if errors.Is(err, errStopped) {
			return errs.Interrupted("search: interrupted during spine pass")
		}
		return err
	}
	counters.Add(w.counters().Since(prev))
	if !w.s.rootSet {
		return errors.New("search: internal: spine pass never answered the root")
	}
	return nil
}

// result assembles the audited Result of a decomposed run from the
// spine pass's root answer and the run's counters.
func (w *hunter) result(counters checkpoint.Counters) (*Result, error) {
	cfg := w.s.cfg
	res := &Result{
		Mode:            ModeExhaustive,
		Model:           cfg.Model.Name(),
		WorstCost:       w.s.rootCost,
		Witness:         w.s.rootTail,
		Workers:         cfg.Workers,
		Paths:           counters.Paths,
		Truncated:       counters.Truncated,
		Pruned:          counters.Pruned,
		StepsSlept:      counters.StepsSlept,
		SymmetryMerges:  counters.SymmetryMerges,
		MaxDepthReached: counters.MaxDepthReached,
	}
	if w.red != nil {
		// A sharded merge holds only the unit-root entries, so the descent
		// recomputes the interior of whichever units the witness threads
		// through (bounded by one subtree per level; tallies are not
		// counted).
		res.Reduced = true
		witness, err := w.reconstructWitness(w.s.rootCost)
		if err != nil {
			return nil, err
		}
		res.Witness = witness
	}
	if err := auditResult(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// commitClock is the clock the snapshot committer reads (nil means
// time.Now); tests replace it to pace writes deterministically.
var commitClock func() time.Time
