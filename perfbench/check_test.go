package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Outputs as the CLIs print them at the pinned configurations.
const (
	exploreOut = `queue: 400376 interleavings explored (400376 truncated at depth 22), specification holds on all
engine: backtracking+dedup, states deduped: 746352, max depth reached: 22
workers: 2, elapsed: 1.825s, throughput: 628368 histories+prunes/s
`
	ccOut = `queue: worst CC-WT/bus cost over 4 waiters x 3 polls = 18 RMRs (depth <= 22)
witness: p0+ p0 p0 p0 p0 p0 p1+ p1 p1 p1 p1 p1 p2+ p2 p2 p2 p2 p2 p3+ p3 p3 p3 (truncated: true)
mode: exhaustive, paths: 318152, pruned: 558661, truncated: 318152, max depth reached: 22
`
	reduceOut = `fixed-waiters: worst DSM cost over 7 waiters x 2 polls = 8 RMRs (depth <= 20)
witness: p0+ p0 p0+ p0 p1+ p1 p1+ p1 p2+ p2 p2+ p8+ p8 p8 p8 p8 p8 p8 p8 p8 (truncated: true)
mode: exhaustive, paths: 146288, pruned: 110747, truncated: 146288, max depth reached: 20, steps slept: 3576069, symmetry merges: 39543
`
)

func TestPinnedOutputsPass(t *testing.T) {
	for wl, out := range map[string]string{"explore-queue": exploreOut, "worstcase-cc": ccOut, "worstcase-reduce": reduceOut} {
		if err := checkPinned(wl, []byte(out)); err != nil {
			t.Errorf("%s: %v", wl, err)
		}
	}
	nodes := map[string]int64{exploreOut: 400376 + 746352, ccOut: 318152 + 558661, reduceOut: 146288 + 110747}
	for out, want := range nodes {
		if got, err := cliNodes([]byte(out)); err != nil || got != want {
			t.Errorf("cliNodes = %d, %v; want %d", got, err, want)
		}
	}
}

func TestCorruptedOutputsFail(t *testing.T) {
	corrupt := map[string]string{
		"explore-queue":    strings.Replace(exploreOut, "746352", "746353", 1),
		"worstcase-cc":     strings.Replace(ccOut, "= 18 RMRs", "= 17 RMRs", 1),
		"worstcase-reduce": strings.Replace(reduceOut, "symmetry merges: 39543", "symmetry merges: 39542", 1),
	}
	for wl, out := range corrupt {
		if checkPinned(wl, []byte(out)) == nil {
			t.Errorf("%s: corrupted output passed the pinned check", wl)
		}
	}
	// A digit added before or after a pinned number changes the number.
	extended := map[string]string{
		"explore-queue":    strings.Replace(exploreOut, "queue: 400376", "queue: 1400376", 1),
		"worstcase-cc":     strings.Replace(ccOut, "pruned: 558661,", "pruned: 5586610,", 1),
		"worstcase-reduce": strings.Replace(reduceOut, "symmetry merges: 39543", "symmetry merges: 395430", 1),
	}
	for wl, out := range extended {
		if checkPinned(wl, []byte(out)) == nil {
			t.Errorf("%s: output with a digit added to a pinned number passed", wl)
		}
	}
	golden := []byte("== E1 table\nrow 1\n")
	if checkGolden(golden, golden) != nil {
		t.Error("identical tables failed the golden check")
	}
	if checkGolden([]byte("== E1 table\nrow 2\n"), golden) == nil {
		t.Error("a changed table passed the golden check")
	}
}

func TestServedDocumentChecks(t *testing.T) {
	doc := []byte(`{"algorithm":"queue","worstCost":18}` + "\n")
	ok := jobView{ID: "j1", Status: "done", Verified: true, Result: []byte(`{"algorithm":"queue","worstCost":18}`)}
	if err := checkServed(ok, "worstcase", doc); err != nil {
		t.Errorf("matching document failed: %v", err)
	}
	unverified := ok
	unverified.Verified = false
	if checkServed(unverified, "worstcase", doc) == nil {
		t.Error("a worst case served without verified: true passed")
	}
	changed := ok
	changed.Result = []byte(`{"algorithm":"queue","worstCost":17}`)
	if checkServed(changed, "worstcase", doc) == nil {
		t.Error("a served document differing from the CLI's passed")
	}
	failed := ok
	failed.Status = "failed"
	if checkServed(failed, "worstcase", doc) == nil {
		t.Error("a failed job passed")
	}
}

// TestCorruptedOpCountsAsFailed runs the explore-queue workload against
// stand-in binaries and checks that an op whose output is wrong is
// counted as attempted and failed, and leaves the run incorrect.
func TestCorruptedOpCountsAsFailed(t *testing.T) {
	for _, c := range []struct {
		name   string
		out    string
		failed int
	}{
		{"pinned", exploreOut, 0},
		{"corrupted", strings.Replace(exploreOut, "400376 interleavings", "400375 interleavings", 1), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			bin := filepath.Join(root, "bin")
			if err := os.MkdirAll(bin, 0o755); err != nil {
				t.Fatal(err)
			}
			script := "#!/bin/sh\ncat <<'EOF'\n" + c.out + "EOF\n"
			if err := os.WriteFile(filepath.Join(bin, "explore"), []byte(script), 0o755); err != nil {
				t.Fatal(err)
			}
			b := &bench{root: root, bin: bin, seed: 1}
			rec, err := b.measure("explore-queue", 1e-9, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Result.Attempted != 1 || rec.Result.Failed != c.failed {
				t.Errorf("attempted %d, failed %d; want 1, %d", rec.Result.Attempted, rec.Result.Failed, c.failed)
			}
			if rec.Result.Correct != (c.failed == 0) {
				t.Errorf("correct = %v with %d failed", rec.Result.Correct, c.failed)
			}
			if want := float64(c.failed); rec.FailedFrac != want {
				t.Errorf("failed_frac = %v, want %v", rec.FailedFrac, want)
			}
		})
	}
}
