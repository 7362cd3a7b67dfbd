package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Pinned outputs. Every op's output is checked against these before its
// time counts; an op whose output differs counts as failed. The numbers
// are deterministic for any worker count.
var pinned = map[string][]string{
	"explore-queue": {
		"400376 interleavings explored (400376 truncated at depth 22)",
		"states deduped: 746352, max depth reached: 22",
	},
	"worstcase-cc": {
		"worst CC-WT/bus cost over 4 waiters x 3 polls = 18 RMRs",
		"paths: 318152, pruned: 558661",
	},
	"worstcase-reduce": {
		"worst DSM cost over 7 waiters x 2 polls = 8 RMRs",
		"paths: 146288, pruned: 110747",
		"steps slept: 3576069, symmetry merges: 39543",
	},
}

// checkPinned reports whether out carries every pinned line fragment of
// the workload, each standing whole: a fragment that begins or ends in a
// number does not match inside a longer number.
func checkPinned(workload string, out []byte) error {
	want, ok := pinned[workload]
	if !ok {
		return fmt.Errorf("no pinned output for %s", workload)
	}
	for _, w := range want {
		if !containsWhole(out, []byte(w)) {
			return fmt.Errorf("%s: output lacks %q", workload, w)
		}
	}
	return nil
}

// containsWhole reports whether frag occurs in out with no digit directly
// before or after it.
func containsWhole(out, frag []byte) bool {
	digit := func(c byte) bool { return '0' <= c && c <= '9' }
	for from := 0; ; {
		i := bytes.Index(out[from:], frag)
		if i < 0 {
			return false
		}
		i += from
		end := i + len(frag)
		if (i == 0 || !digit(out[i-1])) && (end == len(out) || !digit(out[end])) {
			return true
		}
		from = i + 1
	}
}

// checkGolden reports whether the experiments output equals the golden
// fixture byte for byte.
func checkGolden(out, golden []byte) error {
	if bytes.Equal(out, golden) {
		return nil
	}
	n := min(len(out), len(golden))
	i := 0
	for i < n && out[i] == golden[i] {
		i++
	}
	return fmt.Errorf("paper-tables: output differs from the golden fixture at byte %d (%d vs %d bytes)",
		i, len(out), len(golden))
}

var (
	reExplore = regexp.MustCompile(`(\d+) interleavings explored .*\n.*states deduped: (\d+)`)
	reSearch  = regexp.MustCompile(`paths: (\d+), pruned: (\d+)`)
)

// cliNodes is the engine's deterministic node count printed by a CLI:
// paths plus states deduped for explore, paths plus pruned for worstcase.
func cliNodes(out []byte) (int64, error) {
	if m := reExplore.FindSubmatch(out); m != nil {
		return sumInts(m[1], m[2])
	}
	if m := reSearch.FindSubmatch(out); m != nil {
		return sumInts(m[1], m[2])
	}
	return 0, fmt.Errorf("no node counts in output %q", firstLine(out))
}

func sumInts(a, b []byte) (int64, error) {
	x, err := strconv.ParseInt(string(a), 10, 64)
	if err != nil {
		return 0, err
	}
	y, err := strconv.ParseInt(string(b), 10, 64)
	return x + y, err
}

// docNodes is the node count of a job result document, by the same rule
// as cliNodes.
func docNodes(doc []byte) (int64, error) {
	var d struct {
		Paths         int64 `json:"paths"`
		StatesDeduped int64 `json:"statesDeduped"`
		Pruned        int64 `json:"pruned"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, fmt.Errorf("job document: %w", err)
	}
	return d.Paths + d.StatesDeduped + d.Pruned, nil
}

// jobView is the part of the server's job document the client reads.
type jobView struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Verified bool            `json:"verified"`
	Result   json.RawMessage `json:"result"`
}

// checkServed reports whether a served job matches the CLI's -json
// document for the same spec byte for byte, and whether a worst case
// came with a verified witness replay.
func checkServed(v jobView, kind string, cliDoc []byte) error {
	if v.Status != "done" {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	if kind == "worstcase" && !v.Verified {
		return fmt.Errorf("job %s: worst case served without verified: true", v.ID)
	}
	if !bytes.Equal(bytes.TrimSpace(v.Result), bytes.TrimSpace(cliDoc)) {
		return fmt.Errorf("job %s: served document differs from the CLI's -json output", v.ID)
	}
	return nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}
