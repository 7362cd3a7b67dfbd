// Command perfbench is the repository's end-to-end benchmark. It measures
// what a user of the reproduction waits for — an explore verdict, a
// worst-case witness, a served durable job — on three fixed workloads,
// checks every output, and, in a separate traced run, splits the time into
// the layers that produce it and times the paper's tables. See README.md.
//
// Usage, from the repository root (run.sh builds everything first):
//
//	bash perfbench/run.sh --workload explore-queue --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1). A readable report goes to
// standard error, and the full record — environment header, every op,
// spans — to .bench_build/results.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends its standard output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"op_s_tail", "s"},
	{"nodes_per_s", "1/s"},
	{"cpu_s_per_op", "s"},
	{"peak_rss_mb", "MiB"},
}

// record is the full record of one run, written to the results directory.
type record struct {
	Env        envHeader `json:"env"`
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      int       `json:"trace"`
	Result     result    `json:"result"`
	FailedFrac float64   `json:"failed_frac"`
	Failures   []string  `json:"failures,omitempty"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// withheld during the run (/proc/stat steal): when it is high, every
	// wall-clock figure of the run reads slow.
	StealFrac float64 `json:"host_steal_frac"`
	// Untraced runs.
	Run  *runOut   `json:"run,omitempty"`
	Tail *tailInfo `json:"tail,omitempty"`
	// Traced runs.
	Notes map[string]any `json:"notes,omitempty"`
	Spans []span         `json:"spans,omitempty"`
}

// tailInfo qualifies op_s_tail: the percentile it sits at, the number of
// op samples, and whether ten of them lie beyond it.
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	RuleMet    bool    `json:"rule_met"`
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return compareDirs(args[1:], stdout)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name, or all: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: permutes the reprod-durable job order and seeds the traced walks")
	seconds := fs.Float64("seconds", 35, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !known(*workload) {
		return fmt.Errorf("unknown workload %q (have %s, all)", *workload, strings.Join(workloadNames, ", "))
	}

	root, err := os.Getwd()
	if err != nil {
		return err
	}
	b := &bench{root: root, bin: filepath.Join(root, buildDir, "bin"), seed: *seed}
	for _, bin := range []string{"explore", "worstcase", "reprod", "experiments"} {
		if _, err := os.Stat(b.path(bin)); err != nil {
			return fmt.Errorf("missing binary (run through run.sh): %w", err)
		}
	}
	env := readEnv(root)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stderr, "env: %s\n", envLine)

	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		rec, err := b.measure(name, *seconds, *trace)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rec.Env = env
		report(stderr, rec)
		if err := writeRecord(root, rec); err != nil {
			return err
		}
		if len(names) == 1 {
			return json.NewEncoder(stdout).Encode(rec.Result)
		}
		all.Correct = all.Correct && rec.Result.Correct
		all.Attempted += rec.Result.Attempted
		all.Failed += rec.Result.Failed
		for k, m := range rec.Result.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	return json.NewEncoder(stdout).Encode(all)
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// measure runs one workload once, traced or not.
func (b *bench) measure(name string, seconds float64, trace int) (*record, error) {
	b.scratch = filepath.Join(b.root, buildDir, "runs", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(b.scratch, 0o755); err != nil {
		return nil, err
	}
	// Snapshots, profiles and data directories are large and of no use
	// after the run; the record keeps everything measured.
	defer os.RemoveAll(b.scratch)
	rec := &record{Workload: name, Seed: b.seed, Seconds: seconds, Trace: trace}
	clock := startSteal()
	defer func() { rec.StealFrac = clock.frac() }()
	if trace == 1 {
		x, err := b.runTraced()
		if err != nil {
			return nil, err
		}
		rec.Result = result{Attempted: x.checks, Failed: len(x.failures), Metrics: map[string]metric{}}
		rec.Result.Correct = rec.Result.Failed == 0
		for _, m := range perLayer {
			rec.Result.Metrics[m.name] = metric{Value: finite(x.values[m.name]), Unit: m.unit}
		}
		rec.Failures, rec.Notes, rec.Spans = x.failures, x.notes, x.tr.finish()
		rec.FailedFrac = float64(len(x.failures)) / float64(max(x.checks, 1))
		return rec, nil
	}
	var out *runOut
	var err error
	if name == "reprod-durable" {
		out, err = b.runDurable(seconds)
	} else {
		out, err = b.runCLIWorkload(name, seconds)
	}
	if err != nil {
		return nil, err
	}
	rec.Run = out
	var steal []float64
	var jobs []string
	var ok []int // indices of the ops that passed their checks
	for i, op := range out.Ops {
		if op.Err != "" {
			rec.Failures = append(rec.Failures, op.Err)
			continue
		}
		ok = append(ok, i)
		steal, jobs = append(steal, op.Steal), append(jobs, op.Job)
	}
	var setup, walls, cpus, rss []float64
	var nodes int64
	var wallSum, cpuSum float64
	for j, counted := range calmRounds(steal, jobs) {
		if !counted {
			continue
		}
		op := &out.Ops[ok[j]]
		op.Counted = true
		setup = append(setup, op.Setup...)
		walls, cpus, rss = append(walls, op.Wall), append(cpus, op.CPU), append(rss, op.RSSMB)
		nodes += op.Nodes
		wallSum += op.Wall
		cpuSum += op.CPU
	}
	r := result{Attempted: len(out.Ops), Failed: len(rec.Failures), Metrics: map[string]metric{}}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	tailV, pct, tailOK := tail(walls)
	values := map[string]float64{
		"setup_s":     median(setup),
		"op_s_p50":    median(walls),
		"op_s_tail":   tailV,
		"nodes_per_s": float64(nodes) / wallSum,
	}
	values["cpu_s_per_op"] = median(cpus)
	if name == "reprod-durable" {
		// The server's CPU clock ticks in hundredths of a second, so a
		// job's share is a mean rather than a median of coarse values.
		values["cpu_s_per_op"] = cpuSum / float64(len(walls))
	}
	values["peak_rss_mb"] = median(rss)
	for _, m := range endToEnd {
		r.Metrics[m.name] = metric{Value: finite(values[m.name]), Unit: m.unit}
	}
	rec.Result = r
	rec.FailedFrac = float64(r.Failed) / float64(max(r.Attempted, 1))
	rec.Tail = &tailInfo{Percentile: pct, Samples: len(walls), RuleMet: tailOK}
	return rec, nil
}

// finite maps the NaN of an empty sample (every op failed) to 0, which
// JSON can carry; such a run also reports correct false.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// report prints a run's metrics, one per line, to w.
func report(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s (seed %d, %gs, trace %d): attempted %d, failed %d, failed_frac %g, host steal %.1f%%\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Result.Attempted, rec.Result.Failed, rec.FailedFrac,
		100*rec.StealFrac)
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(w, "  %-42s %14.6g %s\n", k, m.Value, m.Unit)
	}
	if t := rec.Tail; t != nil {
		rule := "met"
		if !t.RuleMet {
			rule = "not met: 10 samples or fewer, tail is the fastest op"
		}
		fmt.Fprintf(w, "  op_s_tail is p%.1f of %d samples (%d-beyond rule %s)\n", t.Percentile, t.Samples, tailMin, rule)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func writeRecord(root string, rec *record) error {
	dir := filepath.Join(root, buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// compareDirs compares two directories of untraced run records, parent
// first, metric by metric and workload by workload, with the bounds of
// BENCHMARK.json. Runs pair up in the order they ran, so parent and
// change should be run alternately for the machine's drift to cancel.
func compareDirs(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: compare <parent-results-dir> <change-results-dir>")
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	parent, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	change, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	for _, wl := range workloadNames {
		for _, m := range endToEnd {
			p, c := parent.series(wl, m.name), change.series(wl, m.name)
			if len(p.values) == 0 || len(c.values) == 0 {
				continue
			}
			bd := bounds[m.name]
			v, err := compareRuns(p, c, bd.lower, bd.bound)
			if err != nil {
				v = err.Error()
			}
			fmt.Fprintf(w, "%-17s %-13s parent %-12.6g (spread %.3f)  change %-12.6g (spread %.3f)  %s\n",
				wl, m.name, median(p.values), spread(p.values), median(c.values), spread(c.values), v)
		}
	}
	return nil
}

type bound struct {
	lower bool
	bound float64
}

func readBounds(path string) (map[string]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{lower: m.Better == "lower", bound: m.Bound}
	}
	return out, nil
}

// runSet is the untraced records of one results directory, per workload
// in run order.
type runSet map[string][]result

// series is one metric of one workload over a run set. A run in which
// every op failed measured nothing and is left out; its failed ops still
// count.
func (rs runSet) series(workload, metric string) series {
	var s series
	for _, r := range rs[workload] {
		s.failed += r.Failed
		if m, ok := r.Metrics[metric]; ok && r.Attempted > r.Failed {
			s.values = append(s.values, m.Value)
		}
	}
	return s
}

// loadRuns reads the untraced records of a results directory.
func loadRuns(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0-*.json"))
	if err != nil {
		return nil, err
	}
	// Run order: a record's name ends in the time it was written.
	stamp := func(f string) string {
		i := strings.LastIndexByte(f, '-')
		return fmt.Sprintf("%020s", strings.TrimSuffix(f[i+1:], ".json"))
	}
	sort.Slice(files, func(i, j int) bool { return stamp(files[i]) < stamp(files[j]) })
	out := runSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[rec.Workload] = append(out[rec.Workload], rec.Result)
	}
	return out, nil
}
