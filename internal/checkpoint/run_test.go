package checkpoint

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/telemetry"
)

// TestOpenPreV4SeedsEngineFamilies: resuming a version 3 snapshot, which
// carries no telemetry block, seeds exactly the engine counter families
// its kind registers from the snapshot's deterministic counters.
func TestOpenPreV4SeedsEngineFamilies(t *testing.T) {
	common := map[string]int64{
		"repro_engine_paths_total":           120,
		"repro_engine_truncated_total":       7,
		"repro_engine_sleep_prunes_total":    17,
		"repro_engine_symmetry_merges_total": 5,
	}
	for kind, extra := range map[Kind]string{
		KindSearch:  "repro_engine_pruned_total",
		KindExplore: "repro_engine_deduped_total",
	} {
		snap := compatSnapshot()
		snap.Kind = kind
		snap.Counters.StepsSlept, snap.Counters.SymmetryMerges = 17, 5
		snap.Counters.Pruned, snap.Counters.Deduped = 33, 44
		path := filepath.Join(t.TempDir(), "v3.rpck")
		writeRaw(t, path, 3, encodeBodyV3(snap))

		reg := telemetry.New()
		run := &Run{Options: Options{Path: path, Resume: true}, Registry: reg,
			Snap: Snapshot{Kind: kind, Fingerprint: snap.Fingerprint}}
		if err := run.Open(); err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{extra: 33}
		if kind == KindExplore {
			want[extra] = 44
		}
		for name, v := range common {
			want[name] = v
		}
		got := map[string]int64{}
		for _, c := range reg.CounterValues() {
			if strings.HasPrefix(c.Name, "repro_engine_") {
				got[c.Name] = c.Value
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: seeded %v, want %v", kind, got, want)
		}
		if !reflect.DeepEqual(run.Snap.Done, snap.Done) || run.Snap.Counters != snap.Counters {
			t.Errorf("%s: resumed %+v, want the snapshot's done list and counters", kind, run.Snap)
		}
	}
}

// TestOpenRejectsUnitMismatch: a snapshot whose unit list disagrees with
// the driver's re-derivation is a defect, not a resumable run.
func TestOpenRejectsUnitMismatch(t *testing.T) {
	snap := compatSnapshot()
	path := filepath.Join(t.TempDir(), "run.rpck")
	if err := Write(path, snap); err != nil {
		t.Fatal(err)
	}
	run := &Run{Options: Options{Path: path, Resume: true},
		Snap: Snapshot{Kind: snap.Kind, Fingerprint: snap.Fingerprint, Units: [][]int{{0, 0, 0}, {0, 1}, {2, 0, 2}}}}
	if err := run.Open(); errs.Classify(err) != errs.ClassDefect {
		t.Fatalf("mismatched unit list: %v, want a defect", err)
	}
}
