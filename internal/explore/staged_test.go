package explore

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/memsim"
	"repro/internal/signal"
	"repro/internal/telemetry"
)

// Staged commits, as in internal/search/staged_test.go: the committer's
// clock (commitClock) steps one millisecond per reading, and a unit
// (Begin, Commit) and a write (start, end) each read it twice. The
// explorer writes its first snapshot after the shallow pass (readings
// 1-2), and the next write falls due ten units later. So reading 10 is
// the Commit of the fourth unit, reading 11 the Begin of the fifth, and
// units one to four are staged at both.

// queue3x3 is the durable reprod explore job: queue, three waiters
// polling three times each, depth 20, with dedup.
func queue3x3() Config {
	scripts := map[memsim.PID][]memsim.CallKind{4: {memsim.CallSignal}}
	for pid := memsim.PID(0); pid < 3; pid++ {
		scripts[pid] = []memsim.CallKind{memsim.CallPoll, memsim.CallPoll, memsim.CallPoll}
	}
	return Config{
		Factory:  signal.QueueSignal().New,
		N:        5,
		Scripts:  scripts,
		MaxDepth: 20,
		Engine:   EngineBacktrackDedup,
		Workers:  1,
		Check:    specCheck,
	}
}

// useClock installs a stepping committer clock that runs fire on
// reading number at (never, when at is zero) for the rest of the test.
// Tests that call it must not run in parallel.
func useClock(t *testing.T, at int, fire func()) {
	t.Helper()
	now, n := time.Unix(0, 0), 0
	commitClock = func() time.Time {
		if n++; n == at {
			fire()
		}
		now = now.Add(time.Millisecond)
		return now
	}
	t.Cleanup(func() { commitClock = nil })
}

// interruptAt closes the run's interrupt channel on the given clock
// reading. The commit loop sees a closed channel between units by
// itself; an interrupt meant to land inside a unit (inUnit) then waits
// long enough for RunCheckpointed's relay goroutine to raise the
// engine's stop flag while the unit runs.
func interruptAt(t *testing.T, reading int, inUnit bool) <-chan struct{} {
	stop := make(chan struct{})
	useClock(t, reading, func() {
		close(stop)
		if inUnit {
			time.Sleep(50 * time.Millisecond)
		}
	})
	return stop
}

// engineCounters is the repro_engine_* part of a counter list.
func engineCounters(samples []checkpoint.CounterSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		if strings.HasPrefix(s.Name, "repro_engine_") {
			out[s.Name] = s.Value
		}
	}
	return out
}

// assertRegistryMatchesSnapshot: the registry's engine counters equal
// the telemetry block of the snapshot at path, and the snapshot lists
// wantDone committed units.
func assertRegistryMatchesSnapshot(t *testing.T, reg *telemetry.Registry, path string, wantDone int) {
	t.Helper()
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Done) != wantDone {
		t.Fatalf("snapshot lists %d done units %v, want %d", len(snap.Done), snap.Done, wantDone)
	}
	got := engineCounters(checkpoint.SampleCounters(reg))
	want := engineCounters(snap.Telemetry)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("registry engine counters %v, snapshot telemetry %v", got, want)
	}
}

// resumeMatchesPlain resumes the run at path on the real clock and
// checks its Result equals the plain engine's.
func resumeMatchesPlain(t *testing.T, cfg Config, path string) {
	t.Helper()
	commitClock = nil
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCheckpointed(cfg, Checkpoint{Path: path, Tag: "queue", Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed result drifted:\n got %+v\nwant %+v", got, want)
	}
}

// TestStagedMidUnitAbort: an interrupt inside the fifth unit, with units
// one to four staged, loses them with the aborted one — telemetry
// included, so the registry still equals the shallow-pass snapshot —
// and a resumed run redoes them to the plain Result.
func TestStagedMidUnitAbort(t *testing.T) {
	cfg := queue3x3()
	cfg.Telemetry = telemetry.New()
	path := filepath.Join(t.TempDir(), "run.rpck")
	stop := interruptAt(t, 11, true)
	_, err := RunCheckpointed(cfg, Checkpoint{Path: path, Tag: "queue", Interrupt: stop})
	if !errs.IsInterrupt(err) || !strings.Contains(err.Error(), "mid-unit") {
		t.Fatalf("want a mid-unit interrupt, got %v", err)
	}
	assertRegistryMatchesSnapshot(t, cfg.Telemetry, path, 0)
	cfg.Telemetry = nil
	resumeMatchesPlain(t, cfg, path)
}

// TestStagedFlushOnInterrupt: an interrupt seen between units writes the
// staged units first, so Done lists every unit this run committed.
func TestStagedFlushOnInterrupt(t *testing.T) {
	cfg := queue3x3()
	cfg.Telemetry = telemetry.New()
	path := filepath.Join(t.TempDir(), "run.rpck")
	stop := interruptAt(t, 10, false)
	_, err := RunCheckpointed(cfg, Checkpoint{Path: path, Tag: "queue", Interrupt: stop})
	if !errs.IsInterrupt(err) || !strings.Contains(err.Error(), "between units") {
		t.Fatalf("want an interrupt between units, got %v", err)
	}
	assertRegistryMatchesSnapshot(t, cfg.Telemetry, path, 4)
	cfg.Telemetry = nil
	resumeMatchesPlain(t, cfg, path)
}

// TestStagedWritesFewerThanUnits: a from-scratch run whose writes take
// as long as its units writes far fewer snapshots than it has units, and
// still finishes with the plain Result.
func TestStagedWritesFewerThanUnits(t *testing.T) {
	cfg := queue3x3()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	useClock(t, 0, nil)
	cfg.Telemetry = telemetry.New()
	path := filepath.Join(t.TempDir(), "run.rpck")
	got, err := RunCheckpointed(cfg, Checkpoint{Path: path, Tag: "queue"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	writes := cfg.Telemetry.Counter("repro_checkpoint_writes_total").Value()
	if writes == 0 || writes >= int64(len(snap.Units)) {
		t.Fatalf("%d writes for %d units", writes, len(snap.Units))
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("checkpointed result drifted:\n got %+v\nwant %+v", got, want)
	}
}
