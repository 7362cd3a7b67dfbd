package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/errs"
	"repro/internal/explore"
	"repro/internal/jobspec"
	"repro/internal/search"
)

// Fingerprint pins. A snapshot resumes only into a run whose fingerprint
// string matches the one it was written with, byte for byte, so a
// changed rendering silently stops every existing .rpck file from
// resuming. These cases pin the exact strings of both engines across
// the regimes the fingerprint marks: sharding, reduction, dedup and
// faults.

func TestSearchFingerprintPins(t *testing.T) {
	cases := []struct {
		name    string
		spec    jobspec.Spec
		sharded bool
		want    string
	}{
		{"plain", jobspec.Spec{Alg: "queue", Waiters: 2, Polls: 3, Depth: 15, Model: "cc"}, false,
			"search|queue|n=4|depth=15|model=CC-WT/bus|shard=3|scripts=p0:1,1,1,;p1:1,1,1,;p3:2,;"},
		{"sharded", jobspec.Spec{Alg: "queue", Waiters: 2, Polls: 3, Depth: 15, Model: "cc"}, true,
			"search|queue|n=4|depth=15|model=CC-WT/bus|shard=3|scripts=p0:1,1,1,;p1:1,1,1,;p3:2,;|sharded"},
		{"reduce", jobspec.Spec{Alg: "flag", Waiters: 3, Polls: 2, Depth: 14, Model: "dsm", Reduce: true}, false,
			"search|flag|n=5|depth=14|model=DSM|shard=3|scripts=p0:1,1,;p1:1,1,;p2:1,1,;p4:2,;|reduce"},
		{"faults", jobspec.Spec{Alg: "cas-register", Waiters: 2, Polls: 1, Depth: 12, Model: "dsm", Faults: 1}, true,
			"search|cas-register|n=4|depth=12|model=DSM|shard=3|scripts=p0:1,;p1:1,;p3:2,;|faults[k=1,kinds=crash,lostcas,vol=stable]|sharded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Kind = jobspec.KindWorstcase
			cfg, err := spec.SearchConfig()
			if err != nil {
				t.Fatal(err)
			}
			if got := search.Fingerprint(spec.Alg, cfg, 3, tc.sharded); got != tc.want {
				t.Errorf("fingerprint\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

func TestExploreFingerprintPins(t *testing.T) {
	cases := []struct {
		name          string
		spec          jobspec.Spec
		dedup, reduce bool
		want          string
	}{
		{"plain", jobspec.Spec{Alg: "queue", Waiters: 2, Polls: 3, Depth: 16}, false, false,
			"explore|queue|n=4|depth=16|engine=backtracking|shard=3|scripts=p0:1,1,1,;p1:1,1,1,;p3:2,;"},
		{"dedup", jobspec.Spec{Alg: "queue", Waiters: 2, Polls: 3, Depth: 16}, true, false,
			"explore|queue|n=4|depth=16|engine=backtracking+dedup|shard=3|scripts=p0:1,1,1,;p1:1,1,1,;p3:2,;"},
		{"reduce", jobspec.Spec{Alg: "flag", Waiters: 3, Polls: 2, Depth: 14, Reduce: true}, true, true,
			"explore|flag|n=5|depth=14|engine=backtracking+dedup+por|shard=3|scripts=p0:1,1,;p1:1,1,;p2:1,1,;p4:2,;"},
		{"faults", jobspec.Spec{Alg: "cas-register", Waiters: 2, Polls: 1, Depth: 12, Faults: 2, FaultKinds: "crash", FaultVol: "owned"}, true, false,
			"explore|cas-register|n=4|depth=12|engine=backtracking+dedup|shard=3|scripts=faults[k=2,kinds=crash,vol=owned]|p0:1,;p1:1,;p3:2,;"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Kind = jobspec.KindExplore
			cfg, err := spec.ExploreConfig()
			if err != nil {
				t.Fatal(err)
			}
			if got := explore.Fingerprint(spec.Alg, cfg, 3, tc.dedup, tc.reduce); got != tc.want {
				t.Errorf("fingerprint\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestResumeRefusesOtherKind: a snapshot written by one engine is refused
// by the other's resume as a conflict, and the refused file is left
// byte-identical.
func TestResumeRefusesOtherKind(t *testing.T) {
	dir := t.TempDir()
	ws := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Depth: 10}
	scfg, err := ws.SearchConfig()
	if err != nil {
		t.Fatal(err)
	}
	es := jobspec.Spec{Kind: jobspec.KindExplore, Alg: "flag", Depth: 10}
	ecfg, err := es.ExploreConfig()
	if err != nil {
		t.Fatal(err)
	}
	scfg.Workers, ecfg.Workers = 1, 1
	searchPath := filepath.Join(dir, "search.rpck")
	if _, err := search.RunCheckpointed(scfg, search.Checkpoint{Path: searchPath, Tag: "flag"}); err != nil {
		t.Fatal(err)
	}
	explorePath := filepath.Join(dir, "explore.rpck")
	if _, err := explore.RunCheckpointed(ecfg, explore.Checkpoint{Path: explorePath, Tag: "flag"}); err != nil {
		t.Fatal(err)
	}
	refuse := func(path string, resume func() error) {
		t.Helper()
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := resume(); errs.CodeOf(err) != errs.CodeConflict {
			t.Fatalf("resume from %s: %v, want a conflict", filepath.Base(path), err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("refused resume rewrote %s", filepath.Base(path))
		}
	}
	refuse(explorePath, func() error {
		_, err := search.RunCheckpointed(scfg, search.Checkpoint{Path: explorePath, Tag: "flag", Resume: true})
		return err
	})
	refuse(searchPath, func() error {
		_, err := explore.RunCheckpointed(ecfg, explore.Checkpoint{Path: searchPath, Tag: "flag", Resume: true})
		return err
	})
}
