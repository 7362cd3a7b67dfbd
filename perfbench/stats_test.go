package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{0.5, 0.1, 0.9, 0.3}, 0.4},
		{[]float64{7}, 7},
	}
	for _, c := range cases {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{0.5, 0.1, 0.9, 0.3}, 0.15, 0.8},
		{[]float64{1.428, 1.4418, 1.4399, 1.4501, 1.4302}, 1.4291, 1.44595},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 40 down to 1, unsorted input
	}
	v, pct, ok := tail(xs)
	if !ok || v != 30 || pct != 75 {
		t.Fatalf("tail of 1..40 = %v at p%v (ok %v), want 30 at p75", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailMin {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailMin)
	}
	// 11 samples: the rule just holds, at the minimum.
	if v, pct, ok := tail(xs[:11]); !ok || v != 30 || !near(pct, 100/11.0) {
		t.Errorf("tail of 11 samples = %v at p%v (ok %v), want 30 at p9.1", v, pct, ok)
	}
	// 10 samples: no percentile has ten beyond it; the minimum stands in.
	if v, pct, ok := tail(xs[:10]); ok || v != 31 || pct != 10 {
		t.Errorf("tail of 10 samples = %v at p%v (ok %v), want the minimum 31 at p10, not ok", v, pct, ok)
	}
}

// scalingProbe is the recorded worker-scaling probe: op wall seconds of
// the explore-queue and worstcase-cc CLIs at one and at two workers.
type scalingProbe map[string]map[string][]float64

func loadProbe(t *testing.T) scalingProbe {
	t.Helper()
	b, err := os.ReadFile("testdata/scaling_probe.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Runs scalingProbe `json:"runs"`
	}
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	return p.Runs
}

func TestCompareSeesExploreScaling(t *testing.T) {
	p := loadProbe(t)["explore-queue"]
	got, err := compareRuns(series{values: p["w1"]}, series{values: p["w2"]}, true, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got != verdictBetter {
		t.Errorf("explore-queue w1 → w2 op_s_p50: %s, want %s", got, verdictBetter)
	}
	if got, _ := compareRuns(series{values: p["w2"]}, series{values: p["w1"]}, true, 0.1); got != verdictWorse {
		t.Errorf("explore-queue w2 → w1 op_s_p50: %s, want %s", got, verdictWorse)
	}
}

func TestCompareFindsNoSearchGain(t *testing.T) {
	p := loadProbe(t)["worstcase-cc"]
	for _, dir := range [][2]string{{"w1", "w2"}, {"w2", "w1"}} {
		got, err := compareRuns(series{values: p[dir[0]]}, series{values: p[dir[1]]}, true, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got == verdictBetter {
			t.Errorf("worstcase-cc %s → %s op_s_p50 reported as a gain", dir[0], dir[1])
		}
	}
}

func TestCompareUnresolvedWhenParentSpreadExceedsBound(t *testing.T) {
	parent := []float64{1, 1.5, 2, 1, 1.5, 2, 1, 1.5, 2, 1.5}
	change := []float64{1.6, 1.6, 1.6, 1.6, 1.6, 1.6, 1.6, 1.6, 1.6, 1.6}
	if got, _ := compareRuns(series{values: parent}, series{values: change}, true, 0.1); got != verdictUnresolved {
		t.Errorf("got %s, want %s", got, verdictUnresolved)
	}
}

// A change that fails ops is never a gain, however fast its other ops
// ran, and a run whose every op failed is left out rather than read as
// a zero.
func TestCompareRefusesGainWithFailedOps(t *testing.T) {
	p := loadProbe(t)["explore-queue"]
	got, err := compareRuns(series{values: p["w1"]}, series{values: p["w2"], failed: 1}, true, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got != verdictMoreFailed {
		t.Errorf("explore-queue w1 → w2 with a failed change op: %s, want %s", got, verdictMoreFailed)
	}

	dir := t.TempDir()
	runs := []result{
		{Correct: true, Attempted: 5, Metrics: map[string]metric{"op_s_p50": {Value: 1.0}}},
		{Attempted: 5, Failed: 5, Metrics: map[string]metric{"op_s_p50": {Value: 0}}},
		{Attempted: 5, Failed: 1, Metrics: map[string]metric{"op_s_p50": {Value: 1.2}}},
	}
	for i, r := range runs {
		b, err := json.Marshal(record{Workload: "explore-queue", Result: r})
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, fmt.Sprintf("explore-queue-seed%d-trace0-%d.json", i, i+1))
		if err := os.WriteFile(name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := loadRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := rs.series("explore-queue", "op_s_p50")
	if len(s.values) != 2 || s.values[0] != 1.0 || s.values[1] != 1.2 || s.failed != 6 {
		t.Errorf("series = %+v, want values [1 1.2] and 6 failed ops", s)
	}
}

func TestCalmRounds(t *testing.T) {
	cases := []struct {
		steal []float64
		group []string
		want  []bool
	}{
		// Enough calm rounds: exactly those count.
		{[]float64{0.01, 0.05, 0.0, 0.02, 0.3}, make([]string, 5), []bool{true, false, true, true, false}},
		// Too few: the calmer half counts, ties in run order.
		{[]float64{0.2, 0.05, 0.1, 0.05, 0.01}, make([]string, 5), []bool{false, true, false, true, true}},
		// Every group counts as many rounds as the least calm one has
		// calm rounds: a has two, b three, so each counts its two calmest.
		{[]float64{0.0, 0.01, 0.03, 0.01, 0.02, 0.0}, []string{"a", "b", "a", "a", "b", "b"},
			[]bool{true, true, false, true, false, true}},
	}
	for _, c := range cases {
		got := calmRounds(c.steal, c.group)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("calmRounds(%v, %v) = %v, want %v", c.steal, c.group, got, c.want)
				break
			}
		}
	}
}
