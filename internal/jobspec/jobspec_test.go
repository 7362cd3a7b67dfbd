package jobspec_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/explore"
	"repro/internal/jobspec"
	"repro/internal/search"
)

// TestNormalizeDefaults: the zero-ish spec resolves to the CLI flag
// defaults, and normalization is idempotent.
func TestNormalizeDefaults(t *testing.T) {
	s := &jobspec.Spec{Kind: jobspec.KindWorstcase}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := jobspec.Spec{Kind: "worstcase", Alg: "flag", Waiters: 2, Polls: 2,
		Depth: 10, Model: "dsm", Mode: "exhaustive", Seed: 1, Walks: 512}
	if *s != want {
		t.Fatalf("normalized to %+v, want %+v", *s, want)
	}
	again := *s
	if err := again.Normalize(); err != nil || again != *s {
		t.Fatalf("not idempotent: %+v (%v)", again, err)
	}
}

// TestNormalizeRejects: bad kinds, algorithms, models and modes are
// invalid-input Failures (HTTP 400 material).
func TestNormalizeRejects(t *testing.T) {
	for name, s := range map[string]jobspec.Spec{
		"kind":        {Kind: "sweep"},
		"alg":         {Kind: jobspec.KindExplore, Alg: "nope"},
		"non-polling": {Kind: jobspec.KindExplore, Alg: "leader"},
		"model":       {Kind: jobspec.KindWorstcase, Model: "tso"},
		"mode":        {Kind: jobspec.KindWorstcase, Mode: "bfs"},
	} {
		s := s
		if err := s.Normalize(); !errs.IsFailure(err) || errs.CodeOf(err) != errs.CodeInvalid {
			t.Errorf("%s: got %v, want invalid Failure", name, err)
		}
	}
}

// TestScriptsShape: the canonical workload shape every surface shares.
func TestScriptsShape(t *testing.T) {
	s := &jobspec.Spec{Kind: jobspec.KindExplore, Waiters: 3, Polls: 2}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	n, scripts := s.Scripts()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	if len(scripts) != 4 {
		t.Fatalf("scripted processes = %d, want 4", len(scripts))
	}
	if len(scripts[0]) != 2 || len(scripts[4]) != 1 {
		t.Fatalf("script lengths wrong: %v", scripts)
	}
	if _, spare := scripts[3]; spare {
		t.Fatal("spare PID has a script")
	}
}

// TestCompileAndRun: compiled configs actually run, and the docs carry
// the results with the exact field spelling the CLIs print. The pinned
// substrings are the round-trip contract with the committed goldens.
func TestCompileAndRun(t *testing.T) {
	ws := &jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Waiters: 2, Polls: 2, Depth: 8}
	scfg, err := ws.SearchConfig()
	if err != nil {
		t.Fatal(err)
	}
	sres, err := search.Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	wdoc, err := json.Marshal(jobspec.NewWorstcaseDoc(ws, sres))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"algorithm":"flag"`, `"model":"DSM"`, `"waiters":2`,
		`"polls":2`, `"depth":8`, `"mode":"exhaustive"`, `"worstCost":`, `"witness":`,
		`"schedule":`, `"witnessTruncated":`, `"paths":`, `"pruned":`, `"seed":0`} {
		if !strings.Contains(string(wdoc), field) {
			t.Errorf("worstcase doc lacks %s: %s", field, wdoc)
		}
	}
	if strings.Contains(string(wdoc), `"workers"`) {
		t.Errorf("worstcase doc leaks machine-dependent workers: %s", wdoc)
	}

	es := &jobspec.Spec{Kind: jobspec.KindExplore, Alg: "flag", Waiters: 2, Polls: 2, Depth: 8}
	ecfg, err := es.ExploreConfig()
	if err != nil {
		t.Fatal(err)
	}
	eres, err := explore.Run(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	edoc, err := json.Marshal(jobspec.NewExploreDoc(es, eres, ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"algorithm":"flag"`, `"waiters":2`, `"polls":2`,
		`"depth":8`, `"paths":`, `"truncated":`, `"statesDeduped":`,
		`"maxDepthReached":`, `"engine":"backtracking+dedup"`, `"specHolds":true`} {
		if !strings.Contains(string(edoc), field) {
			t.Errorf("explore doc lacks %s: %s", field, edoc)
		}
	}
	if strings.Contains(string(edoc), `"violation"`) {
		t.Errorf("passing explore doc carries a violation field: %s", edoc)
	}
	vdoc, _ := json.Marshal(jobspec.NewExploreDoc(es, eres, "poll returned 0 after signal"))
	if !strings.Contains(string(vdoc), `"specHolds":false`) || !strings.Contains(string(vdoc), `"violation":"poll returned 0 after signal"`) {
		t.Errorf("violating explore doc wrong: %s", vdoc)
	}
}

// TestSpecRoundTrip: a spec survives JSON (the server's request body).
func TestSpecRoundTrip(t *testing.T) {
	dedup := false
	in := jobspec.Spec{Kind: "explore", Alg: "queue", Waiters: 3, Polls: 2, Depth: 12, Dedup: &dedup}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out jobspec.Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Alg != in.Alg || out.Waiters != in.Waiters ||
		out.Dedup == nil || *out.Dedup {
		t.Fatalf("round trip lost fields: %+v", out)
	}
}

// TestNormalizeCaps: each size field is accepted at its cap and refused
// one past it, or far past it, as an invalid-input Failure naming the
// field. The largest values the repository's own workloads use pass.
func TestNormalizeCaps(t *testing.T) {
	cases := []struct {
		name string
		spec jobspec.Spec
		ok   bool
	}{
		{"largest-used", jobspec.Spec{Waiters: 40, Polls: 3, Depth: 45, Walks: 4096, Workers: 8}, true},
		{"waiters-at-cap", jobspec.Spec{Waiters: 1024}, true},
		{"waiters-over", jobspec.Spec{Waiters: 1025}, false},
		{"polls-at-cap", jobspec.Spec{Polls: 1024}, true},
		{"polls-over", jobspec.Spec{Polls: 1025}, false},
		{"polls-huge", jobspec.Spec{Polls: 1 << 62}, false},
		{"depth-at-cap", jobspec.Spec{Depth: 1024}, true},
		{"depth-over", jobspec.Spec{Depth: 1025}, false},
		{"walks-at-cap", jobspec.Spec{Walks: 1 << 16}, true},
		{"walks-over", jobspec.Spec{Walks: 1<<16 + 1}, false},
		{"workers-at-cap", jobspec.Spec{Workers: 256}, true},
		{"workers-over", jobspec.Spec{Workers: 257}, false},
	}
	for _, tc := range cases {
		for _, kind := range []string{jobspec.KindExplore, jobspec.KindWorstcase} {
			s := tc.spec
			s.Kind = kind
			err := s.Normalize()
			if tc.ok {
				if err != nil {
					t.Errorf("%s/%s: %v", tc.name, kind, err)
				}
				continue
			}
			field := strings.SplitN(tc.name, "-", 2)[0]
			if errs.CodeOf(err) != errs.CodeInvalid || !strings.Contains(err.Error(), field) {
				t.Errorf("%s/%s: got %v, want an invalid Failure naming %s", tc.name, kind, err, field)
			}
		}
	}
}
