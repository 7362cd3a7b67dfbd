package checkpoint_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/explore"
	"repro/internal/jobspec"
	"repro/internal/search"
)

// Final-file pins. A completed durable run's last snapshot is a pure
// function of its configuration: the unit list, every unit in the done
// list (in commit order), the counters and the sorted table. How often
// the run wrote snapshots on the way, and how each write built its body,
// must not move those bytes. Each case runs one durable job with no
// telemetry registry attached and digests the final .rpck file with
// FNV-128; a change means finished snapshots no longer read back the
// same way.

func TestFinalSnapshotDigests(t *testing.T) {
	cases := []struct {
		name string
		spec jobspec.Spec
		want string
	}{
		{"search-cc", jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "queue",
			Waiters: 2, Polls: 3, Depth: 15, Model: "cc"}, "092e00d10a756ecebd6a9e6a2449ada1"},
		{"search-dsm-reduce", jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag",
			Waiters: 3, Polls: 2, Depth: 14, Model: "dsm", Reduce: true}, "4d1dc2b952e9a90897bc3bc1f0cdc540"},
		{"explore-dedup", jobspec.Spec{Kind: jobspec.KindExplore, Alg: "queue",
			Waiters: 2, Polls: 3, Depth: 16}, "8011a2fd9ada973cc23fef16c40b05f4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "run.rpck")
			spec := tc.spec
			if spec.Kind == jobspec.KindWorstcase {
				cfg, err := spec.SearchConfig()
				if err != nil {
					t.Fatal(err)
				}
				cfg.Workers = 1
				if _, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: spec.Alg}); err != nil {
					t.Fatal(err)
				}
			} else {
				cfg, err := spec.ExploreConfig()
				if err != nil {
					t.Fatal(err)
				}
				cfg.Workers = 1
				if _, err := explore.RunCheckpointed(cfg, explore.Checkpoint{Path: path, Tag: spec.Alg}); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New128a()
			h.Write(raw)
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
				t.Errorf("final snapshot digest %s (%d bytes), want %s", got, len(raw), tc.want)
			}
		})
	}
}
