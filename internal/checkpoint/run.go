package checkpoint

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/errs"
	"repro/internal/memsim"
	"repro/internal/telemetry"
)

// Options configures a durable run (search.Checkpoint and
// explore.Checkpoint are this type). Units commit one at a time, in
// order, and snapshots follow the Committer's write policy: committed
// units are staged and written once they have run at least ten times as
// long as the previous write took, when StopAfter is reached, on an
// interrupt seen between units, and at the end. A kill, or an interrupt
// inside a unit, loses the staged units — up to about ten write
// durations of work — and a resumed run redoes them.
type Options struct {
	// Path is the snapshot file. The engines require it; a sharded
	// coordinator without one persists nothing.
	Path string
	// Tag folds a caller-side identity — typically the algorithm name,
	// which the factory hides — into the fingerprint.
	Tag string
	// ShardDepth is the unit prefix depth. Zero means 3; the value is
	// clamped to the depth bound minus one (see ClampShardDepth).
	ShardDepth int
	// Resume loads the snapshot at Path instead of starting fresh; the
	// snapshot's kind and fingerprint must match.
	Resume bool
	// StopAfter, when positive, interrupts the run after that many units
	// committed in this invocation (a deterministic kill, for tests and
	// smokes). The staged units are written before returning.
	StopAfter int
	// Interrupt, when non-nil, aborts the run when it becomes readable.
	// Seen between units it first writes the staged units; inside a unit
	// it writes nothing. Either way the snapshot on disk stays valid for
	// resumption.
	Interrupt <-chan struct{}
}

// ClampShardDepth resolves a requested unit depth against a run's depth
// bound: default 3, never at or past the bound (the last level belongs
// to the pass that links the units, so units are always internal
// nodes), and never negative.
func ClampShardDepth(requested, maxDepth int) int {
	d := requested
	if d <= 0 {
		d = 3
	}
	return max(min(d, maxDepth-1), 0)
}

// FingerprintScripts renders the script part of a fingerprint: for each
// scripted process in PID order, "p<pid>:" followed by its call kinds,
// each ended by a comma, and a closing semicolon.
func FingerprintScripts(n int, scripts map[memsim.PID][]memsim.CallKind) string {
	var b strings.Builder
	for pid := 0; pid < n; pid++ {
		script, ok := scripts[memsim.PID(pid)]
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

// Run is one durable run in progress: the snapshot its next write
// persists and the committer that paces those writes. A driver fills in
// the identity fields, calls Open, commits its units through
// CommitUnits, and reads the totals back from Snap.Counters.
type Run struct {
	Options
	// Snap is what the next write persists. The driver sets Kind,
	// Fingerprint and ShardDepth, and Units when it derives the unit list
	// itself; Open continues Done, Counters, Entries (and Units) from a
	// resumed snapshot.
	Snap Snapshot
	// Registry receives the run's checkpoint and unit telemetry; nil
	// means none.
	Registry *telemetry.Registry
	// Meter, when non-nil, hears of every committed write.
	Meter *telemetry.Meter
	// Clock is the committer's clock (nil means time.Now).
	Clock func() time.Time
	// Stage, when non-nil, runs before every write and returns the table
	// entries the write persists. Engines also land the telemetry of the
	// units the write persists there, so that the registry and the
	// snapshot's telemetry block move together.
	Stage func() []Entry

	commit  *Committer
	metrics Metrics
	unitNs  *telemetry.Histogram
}

// Open starts the run: it registers the checkpoint families and
// repro_unit_ns, and with Resume set it reads the snapshot at Path,
// checks its kind, its fingerprint and, when Snap.Units is set, its unit
// list, and continues from it, telemetry counters included.
func (r *Run) Open() error {
	r.commit = NewCommitter(r.Clock)
	r.metrics = NewMetrics(r.Registry)
	r.unitNs = r.Registry.Histogram("repro_unit_ns", 1e5, 1e6, 1e7, 1e8, 1e9, 1e10)
	if !r.Resume {
		return nil
	}
	kind := r.Snap.Kind
	if r.Path == "" {
		return errs.Failuref(errs.CodeInvalid, "%s: resume requires a checkpoint path", kind)
	}
	snap, err := Read(r.Path)
	if err != nil {
		return err
	}
	if snap.Kind != kind {
		return errs.Failuref(errs.CodeConflict, "%s: %s is a %s snapshot", kind, r.Path, snap.Kind)
	}
	if snap.Fingerprint != r.Snap.Fingerprint {
		return errs.Failuref(errs.CodeConflict,
			"%s: snapshot %s was written by a different configuration (%s, want %s)",
			kind, r.Path, snap.Fingerprint, r.Snap.Fingerprint)
	}
	if r.Snap.Units != nil && !slices.EqualFunc(snap.Units, r.Snap.Units, slices.Equal[[]int]) {
		return errs.Defectf("%s: snapshot %s unit list disagrees with re-derivation", kind, r.Path)
	}
	preloadTelemetry(r.Registry, snap)
	r.Snap = *snap
	return nil
}

// preloadTelemetry continues reg's counters from where the resumed
// snapshot's run committed, so rates and totals stay monotone across
// resumes. A pre-v4 snapshot has no telemetry block; the engine families
// are seeded from its deterministic counters instead, the best
// cumulative record such a snapshot carries.
func preloadTelemetry(reg *telemetry.Registry, s *Snapshot) {
	var vals []telemetry.CounterValue
	for _, c := range s.Telemetry {
		vals = append(vals, telemetry.CounterValue{Name: c.Name, Value: c.Value})
	}
	if len(vals) == 0 {
		c := s.Counters
		vals = []telemetry.CounterValue{
			{Name: "repro_engine_paths_total", Value: int64(c.Paths)},
			{Name: "repro_engine_truncated_total", Value: int64(c.Truncated)},
			{Name: "repro_engine_sleep_prunes_total", Value: int64(c.StepsSlept)},
			{Name: "repro_engine_symmetry_merges_total", Value: int64(c.SymmetryMerges)},
		}
		if s.Kind == KindSearch {
			vals = append(vals, telemetry.CounterValue{Name: "repro_engine_pruned_total", Value: int64(c.Pruned)})
		} else {
			vals = append(vals, telemetry.CounterValue{Name: "repro_engine_deduped_total", Value: int64(c.Deduped)})
		}
	}
	reg.AddCounterValues(vals)
}

// CommitUnits runs, in order, every unit of Snap.Units that Snap.Done
// does not list, and commits each one into Snap: its index onto Done and
// its counter movement onto Counters. counters returns the engine's
// cumulative counters; stopped, when non-nil, reports the engine's stop
// flag. Between units an interrupt (Interrupt readable, or stopped) or
// reaching StopAfter writes the staged units and returns an
// errs.ClassInterrupt error; a due write is made after each commit, and
// the staged units are written at the end.
func (r *Run) CommitUnits(unit func(i int) error, counters func() Counters, stopped func() bool) error {
	kind := r.Snap.Kind
	done := r.Snap.DoneSet()
	committed := 0
	for i := range r.Snap.Units {
		if done[uint32(i)] {
			continue
		}
		if r.interrupted() || stopped != nil && stopped() {
			if err := r.Flush(); err != nil {
				return err
			}
			return errs.Interrupted(fmt.Sprintf("%s: interrupted between units", kind))
		}
		prev := counters()
		start := r.commit.Begin()
		if err := unit(i); err != nil {
			// The unit did not commit, and neither do the staged units: an
			// engine's table may now hold the unit's partial entries. The
			// last snapshot, which never saw them, stands.
			return err
		}
		r.Snap.Counters.Add(counters().Since(prev))
		r.unitNs.Observe(0, r.commit.Commit(start).Nanoseconds())
		r.Snap.Done = append(r.Snap.Done, uint32(i))
		committed++
		if r.StopAfter > 0 && committed >= r.StopAfter {
			if err := r.Flush(); err != nil {
				return err
			}
			return errs.Interrupted(fmt.Sprintf("%s: stopped after %d units as requested", kind, committed))
		}
		if r.commit.Due() {
			if err := r.Write(); err != nil {
				return err
			}
		}
	}
	return r.Flush()
}

// interrupted reports, without blocking, whether Interrupt is readable.
// Checking here rather than only through an engine's stop flag makes an
// interrupt that lands between units take the flushing path whenever the
// goroutine relaying it to the engine happens to run.
func (r *Run) interrupted() bool {
	select {
	case <-r.Interrupt:
		return true
	default:
		return false
	}
}

// Write persists Snap now, through the committer.
func (r *Run) Write() error { return r.commit.Write(r.write) }

// Flush writes Snap when any committed unit is staged.
func (r *Run) Flush() error { return r.commit.Flush(r.write) }

func (r *Run) write() error {
	if r.Path == "" {
		return nil
	}
	snap := r.Snap
	if r.Stage != nil {
		// The engine's table holds the entries, so Snap keeps none
		// between writes: neither a resumed snapshot's entries nor the
		// last export stay alive beside the table.
		r.Snap.Entries = nil
		snap.Entries = r.Stage()
	}
	// The write-instrumentation families necessarily lag one write (the
	// sample is taken inside the body this write persists); the engine
	// families are exact at every write.
	snap.Telemetry = SampleCounters(r.Registry)
	snap.SortEntries()
	if err := r.metrics.Write(r.Path, &snap); err != nil {
		return err
	}
	if r.Meter != nil {
		r.Meter.Checkpointed()
	}
	return nil
}
