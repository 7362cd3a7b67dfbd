package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/jobspec"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// The traced run: per-layer metrics from spans the benchmark records
// around its calls into each layer, and from the counters the program
// already exports (-telemetry NDJSON, GET /metrics, -mutexprofile).

// span is one timed call into a layer. Spans nest: Parent is the span
// that was open when this one began (-1 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run writes them out. It is
// used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) (end func()) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// finish computes every span's self time: its duration minus the time
// its children cover.
func (t *tracer) finish() []span {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	return t.spans
}

// perLayer lists the traced run's metrics with their units. Names with a
// workload suffix are measured on that workload's configuration.
var perLayer = []struct{ name, unit string }{
	{"memsim.step_ns", "ns"},
	{"memsim.apply_revert_ns", "ns"},
	{"memsim.frame_clone_ns", "ns"},
	{"memsim.key_ns", "ns"},
	{"memsim.key_bytes", "bytes"},
	{"model.add_ns.cc", "ns"},
	{"model.add_ns.dsm", "ns"},
	{"model.fork_ns.cc", "ns"},
	{"model.state_ns.cc", "ns"},
	{"model.state_bytes.cc", "bytes"},
	{"explore.nodes", "count"},
	{"explore.ns_per_node_1w", "ns/node"},
	{"explore.dedup_frac", "frac"},
	{"search.nodes.worstcase-cc", "count"},
	{"search.nodes.worstcase-reduce", "count"},
	{"search.ns_per_node_1w.worstcase-cc", "ns/node"},
	{"search.ns_per_node_1w.worstcase-reduce", "ns/node"},
	{"search.memo_hit_frac.worstcase-cc", "frac"},
	{"search.memo_hit_frac.worstcase-reduce", "frac"},
	{"search.pool_hit_frac.worstcase-cc", "frac"},
	{"search.pool_hit_frac.worstcase-reduce", "frac"},
	{"search.units", "count"},
	{"search.unit_ms_p50", "ms"},
	{"search.unit_ms_max", "ms"},
	{"search.replay_ms", "ms"},
	{"reduce.steps_slept", "count"},
	{"reduce.symmetry_merges", "count"},
	{"worksteal.speedup_2w.explore-queue", "x"},
	{"worksteal.speedup_2w.worstcase-cc", "x"},
	{"worksteal.steals.explore-queue", "count"},
	{"worksteal.steals.worstcase-cc", "count"},
	{"worksteal.splits.explore-queue", "count"},
	{"worksteal.splits.worstcase-cc", "count"},
	{"worksteal.idle_sleeps.explore-queue", "count"},
	{"worksteal.idle_sleeps.worstcase-cc", "count"},
	{"worksteal.mutex_delay_ms.explore-queue", "ms"},
	{"worksteal.mutex_delay_ms.worstcase-cc", "ms"},
	{"checkpoint.writes_per_job", "count"},
	{"checkpoint.write_mb_per_job", "MiB"},
	{"checkpoint.write_amp", "x"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.read_ms", "ms"},
	{"checkpoint.disk_left_mb", "MiB"},
	{"jobspec.compile_us", "us"},
	{"reprod.submit_ms", "ms"},
	{"reprod.queue_ms", "ms"},
	{"reprod.run_ms", "ms"},
	{"reprod.fetch_ms", "ms"},
	{"core.table_ms.E1", "ms"},
	{"core.table_ms.E2", "ms"},
	{"core.table_ms.E3", "ms"},
	{"core.table_ms.E3G", "ms"},
	{"core.table_ms.E4", "ms"},
	{"core.table_ms.E5", "ms"},
	{"core.table_ms.E6", "ms"},
	{"core.table_ms.E7", "ms"},
	{"core.table_ms.E8", "ms"},
	{"core.table_ms.E9", "ms"},
	{"core.table_ms.E10", "ms"},
	{"core.table_ms.E11", "ms"},
	{"core.table_ms.E12", "ms"},
	{"trace.unattributed_frac.explore-queue", "frac"},
	{"trace.unattributed_frac.worstcase-cc", "frac"},
	{"trace.unattributed_frac.worstcase-reduce", "frac"},
	{"trace.overhead_frac.explore-queue", "frac"},
	{"trace.overhead_frac.worstcase-cc", "frac"},
	{"telemetry.overhead_frac.explore-queue", "frac"},
	{"telemetry.overhead_frac.worstcase-cc", "frac"},
}

// traced is the state of one traced run.
type traced struct {
	b        *bench
	tr       *tracer
	values   map[string]float64
	checks   int
	failures []string
	// findings that are not numbers: contended call sites, per-job rows
	notes map[string]any
}

// check counts one correctness check and records its failure.
func (x *traced) check(err error) bool {
	x.checks++
	if err != nil {
		x.failures = append(x.failures, err.Error())
		return false
	}
	return true
}

func (x *traced) set(name string, v float64) { x.values[name] = v }

// runTraced runs every probe of the traced run and returns its metrics.
func (b *bench) runTraced() (*traced, error) {
	x := &traced{b: b, tr: newTracer(), values: map[string]float64{}, notes: map[string]any{}}
	end := x.tr.begin("traced")
	queue := walkConfig{alg: "queue", waiters: 4, polls: 3, depth: 22, model: model.ModelCC}
	fw := walkConfig{alg: "fixed-waiters", waiters: 7, polls: 2, depth: 20, model: model.ModelDSM}
	var qc, fc layerCosts
	steps := []struct {
		name string
		run  func() error
	}{
		{"layers.queue", func() (err error) { qc, err = measureLayers(queue, b.seed); return err }},
		{"layers.fixed-waiters", func() (err error) { fc, err = measureLayers(fw, b.seed); return err }},
		{"scaling.explore-queue", func() error { return x.scaling("explore-queue") }},
		{"scaling.worstcase-cc", func() error { return x.scaling("worstcase-cc") }},
		{"inprocess", func() error { return x.inProcess(qc, fc) }},
		{"durable", x.durable},
		{"tables", x.tables},
	}
	for _, s := range steps {
		endStep := x.tr.begin(s.name)
		err := s.run()
		endStep()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	end()
	x.notes["layers.queue"], x.notes["layers.fixed-waiters"] = qc, fc
	x.set("memsim.step_ns", qc.StepNs)
	x.set("memsim.apply_revert_ns", qc.ApplyRevertNs)
	x.set("memsim.frame_clone_ns", qc.CloneNs)
	x.set("memsim.key_ns", qc.KeyNs)
	x.set("memsim.key_bytes", qc.KeyBytes)
	x.set("model.add_ns.cc", qc.AddNs)
	x.set("model.fork_ns.cc", qc.ForkNs)
	x.set("model.state_ns.cc", qc.StateNs)
	x.set("model.state_bytes.cc", qc.StateBytes)
	x.set("model.add_ns.dsm", fc.AddNs)
	for _, m := range perLayer {
		if _, ok := x.values[m.name]; !ok {
			return nil, fmt.Errorf("traced run did not measure %s", m.name)
		}
	}
	return x, nil
}

// withWorkers returns args with the -workers value replaced.
func withWorkers(args []string, workers string, extra ...string) []string {
	out := append([]string(nil), args...)
	for i := range out {
		if out[i] == "-workers" && i+1 < len(out) {
			out[i+1] = workers
		}
	}
	return append(out, extra...)
}

// scaling is the worker-scaling and contention probe: the workload's CLI
// plain, with -telemetry, and at one and two workers with -telemetry and
// -mutexprofile.
func (x *traced) scaling(name string) error {
	w := cliWorkloads[name]
	bin := x.b.path(w.bin)
	file := func(s string) string { return filepath.Join(x.b.scratch, name+"."+s) }
	runs := []struct {
		label string
		args  []string
	}{
		{"plain", w.args},
		{"telemetry", withWorkers(w.args, "2", "-telemetry", file("tel.ndjson"))},
		{"w1", withWorkers(w.args, "1", "-telemetry", file("w1.ndjson"), "-mutexprofile", file("w1.mutex"))},
		{"w2", withWorkers(w.args, "2", "-telemetry", file("w2.ndjson"), "-mutexprofile", file("w2.mutex"))},
	}
	wall := map[string]float64{}
	for _, r := range runs {
		end := x.tr.begin(name + "." + r.label)
		p := runProc(bin, r.args...)
		end()
		err := p.err
		if err == nil {
			err = checkPinned(name, p.stdout)
		}
		x.check(err)
		wall[r.label] = p.wall.Seconds()
	}
	x.set("worksteal.speedup_2w."+name, wall["w1"]/wall["w2"])
	x.set("telemetry.overhead_frac."+name, wall["telemetry"]/wall["plain"]-1)
	x.set("trace.overhead_frac."+name, wall["w2"]/wall["plain"]-1)
	counters, err := finalCounters(file("w2.ndjson"))
	if err != nil {
		return err
	}
	x.set("worksteal.steals."+name, float64(counters["repro_worksteal_steals_total"]))
	x.set("worksteal.splits."+name, float64(counters["repro_worksteal_splits_total"]))
	x.set("worksteal.idle_sleeps."+name, float64(counters["repro_worksteal_idle_sleeps_total"]))
	total, site, siteMs, err := topContention(bin, file("w2.mutex"))
	if err != nil {
		return err
	}
	x.set("worksteal.mutex_delay_ms."+name, total)
	x.notes["mutex_top_site."+name] = map[string]any{"function": site, "delay_ms": siteMs, "total_delay_ms": total}
	x.notes["scaling_wall_s."+name] = wall
	return nil
}

// finalCounters reads the last snapshot of an NDJSON telemetry file.
func finalCounters(path string) (map[string]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var snap telemetry.Snapshot
	if err := json.Unmarshal(lines[len(lines)-1], &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]int64{}
	for _, m := range snap.Metrics {
		out[m.Name] = m.Value
	}
	return out, nil
}

var (
	reTotal = regexp.MustCompile(`of ([0-9.]+)(ns|us|µs|ms|s) total`)
	reRow   = regexp.MustCompile(`^\s*([0-9.]+)(ns|us|µs|ms|s)\s+\S+\s+\S+\s+\S+\s+\S+\s+(.+)$`)
)

// topContention reads a mutex profile with go tool pprof and returns the
// total contention delay and the call site holding most of it, with the
// sync and runtime frames hidden so the site is the program's own code.
func topContention(bin, profile string) (totalMs float64, site string, siteMs float64, err error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=3",
		`-hide=^(sync|runtime|internal)[./(]`, bin, profile).Output()
	if err != nil {
		return 0, "", 0, fmt.Errorf("pprof %s: %w", profile, err)
	}
	if m := reTotal.FindStringSubmatch(string(out)); m != nil {
		totalMs = toMs(m[1], m[2])
	}
	site = "none"
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "flat%") {
			header = true
			continue
		}
		if m := reRow.FindStringSubmatch(line); header && m != nil {
			site, siteMs = strings.TrimSpace(m[3]), toMs(m[1], m[2])
			break
		}
	}
	return totalMs, site, siteMs, nil
}

func toMs(v, unit string) float64 {
	f, _ := strconv.ParseFloat(v, 64) // the regexp admits only numbers
	switch unit {
	case "ns":
		return f / 1e6
	case "us", "µs":
		return f / 1e3
	case "s":
		return f * 1e3
	}
	return f
}

// inProcess runs the three engine workloads in this process at one
// worker, replays each witness, and splits the wall time into the layer
// costs the walks measured.
func (x *traced) inProcess(qc, fc layerCosts) error {
	spec := jobspec.Spec{Kind: jobspec.KindExplore, Alg: "queue", Waiters: 4, Polls: 3, Depth: 22, Workers: 1}
	cfg, err := spec.ExploreConfig()
	if err != nil {
		return err
	}
	reg := telemetry.New()
	cfg.Telemetry = reg
	end := x.tr.begin("explore.Run")
	start := time.Now()
	res, err := explore.Run(cfg)
	wall := time.Since(start)
	end()
	if err != nil {
		return err
	}
	// A wrong result fails the run's check; its figures are still reported.
	x.check(checkPinned("explore-queue", []byte(fmt.Sprintf(
		"%d interleavings explored (%d truncated at depth %d)\nstates deduped: %d, max depth reached: %d",
		res.Paths, res.Truncated, spec.Depth, res.StatesDeduped, res.MaxDepthReached))))
	c := counterMap(reg)
	nodes := float64(res.Paths + res.StatesDeduped)
	x.set("explore.nodes", nodes)
	x.set("explore.ns_per_node_1w", float64(wall.Nanoseconds())/nodes)
	x.set("explore.dedup_frac", frac(c["repro_engine_deduped_total"], c["repro_engine_nodes_total"]))
	x.set("trace.unattributed_frac.explore-queue",
		1-float64(c["repro_engine_nodes_total"])*qc.perNodeNs(false)/float64(wall.Nanoseconds()))

	searches := []struct {
		workload string
		spec     jobspec.Spec
		costs    layerCosts
	}{
		{"worstcase-cc", jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "queue", Waiters: 4, Polls: 3, Depth: 22, Model: "cc", Workers: 1}, qc},
		{"worstcase-reduce", jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "fixed-waiters", Waiters: 7, Polls: 2, Depth: 20, Model: "dsm", Reduce: true, Workers: 1}, fc},
	}
	for _, s := range searches {
		cfg, err := s.spec.SearchConfig()
		if err != nil {
			return err
		}
		reg := telemetry.New()
		cfg.Telemetry = reg
		end := x.tr.begin("search.Run." + s.workload)
		start := time.Now()
		res, err := search.Run(cfg)
		wall := time.Since(start)
		end()
		if err != nil {
			return err
		}
		summary := fmt.Sprintf("worst %s cost over %d waiters x %d polls = %d RMRs\npaths: %d, pruned: %d",
			res.Model, s.spec.Waiters, s.spec.Polls, res.WorstCost, res.Paths, res.Pruned)
		if res.Reduced {
			summary += fmt.Sprintf(", steps slept: %d, symmetry merges: %d", res.StepsSlept, res.SymmetryMerges)
		}
		x.check(checkPinned(s.workload, []byte(summary)))
		x.replay(cfg, res.Witness, res.WorstCost, "replay."+s.workload)
		c := counterMap(reg)
		nodes := float64(res.Paths + res.Pruned)
		x.set("search.nodes."+s.workload, nodes)
		x.set("search.ns_per_node_1w."+s.workload, float64(wall.Nanoseconds())/nodes)
		x.set("search.memo_hit_frac."+s.workload,
			frac(c["repro_engine_memo_hits_total"], c["repro_engine_memo_hits_total"]+c["repro_engine_memo_misses_total"]))
		x.set("search.pool_hit_frac."+s.workload,
			frac(c["repro_engine_pool_hits_total"], c["repro_engine_pool_hits_total"]+c["repro_engine_pool_misses_total"]))
		x.set("trace.unattributed_frac."+s.workload,
			1-float64(c["repro_engine_nodes_total"])*s.costs.perNodeNs(true)/float64(wall.Nanoseconds()))
		if s.spec.Reduce {
			x.set("reduce.steps_slept", float64(res.StepsSlept))
			x.set("reduce.symmetry_merges", float64(res.SymmetryMerges))
		}
	}
	return nil
}

// replay re-prices a witness on search.Replay's independent path, checks
// it against the reported worst cost and returns how long it took.
func (x *traced) replay(cfg search.Config, witness []int, worst int, name string) time.Duration {
	end := x.tr.begin(name)
	start := time.Now()
	rep, err := search.Replay(cfg, witness)
	d := time.Since(start)
	end()
	if err == nil && rep.Cost.Total != worst {
		err = fmt.Errorf("%s: witness replays to %d RMRs, reported %d", name, rep.Cost.Total, worst)
	}
	x.check(err)
	return d
}

func counterMap(reg *telemetry.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, v := range reg.CounterValues() {
		out[v.Name] = v.Value
	}
	return out
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// durable serves one seeded permutation of the job mix with the client
// timing each state transition, reads the checkpoint counters from
// /metrics around each job, and times the checkpoint, unit, replay and
// jobspec layers on the same jobs.
func (x *traced) durable() error {
	b := x.b
	docs, err := b.cliDocs()
	if err != nil {
		return err
	}
	data := filepath.Join(b.scratch, "traced-data")
	s, _, err := b.startServer(data)
	if err != nil {
		return err
	}
	defer s.stop()
	var submit, queue, run, fetch, replays, writeMs, readMs []float64
	var writes, written, final int64
	rows := []map[string]any{}
	rng := rand.New(rand.NewPCG(b.seed, 4))
	for _, i := range rng.Perm(len(durableMix)) {
		spec := durableMix[i]
		before, err := s.checkpointCounters()
		if err != nil {
			return err
		}
		end := x.tr.begin("reprod.job." + specName(spec))
		start := time.Now()
		v, t, err := s.serveJob(spec, true)
		end()
		if err == nil {
			err = checkServed(v, spec.Kind, docs[i])
		}
		if !x.check(err) {
			continue
		}
		after, err := s.checkpointCounters()
		if err != nil {
			return err
		}
		if t.running.IsZero() {
			t.running = t.done // finished between two polls: no queued time seen apart
		}
		submit = append(submit, ms(t.submitted.Sub(start)))
		queue = append(queue, ms(t.running.Sub(t.submitted)))
		run = append(run, ms(t.done.Sub(t.running)))
		fetch = append(fetch, ms(t.fetched.Sub(t.done)))
		path := filepath.Join(data, v.ID+".rpck")
		fi, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("final snapshot of %s: %w", v.ID, err)
		}
		jw, jb := after[0]-before[0], after[1]-before[1]
		writes, written, final = writes+jw, written+jb, final+fi.Size()
		rows = append(rows, map[string]any{"job": specName(spec), "writes": jw, "bytes_written": jb, "final_bytes": fi.Size()})
		r, w, err := x.snapshotIO(path)
		if err != nil {
			return err
		}
		readMs, writeMs = append(readMs, r), append(writeMs, w)
		if spec.Kind == jobspec.KindWorstcase {
			var doc struct {
				WorstCost int   `json:"worstCost"`
				Witness   []int `json:"witness"`
			}
			if err := json.Unmarshal(v.Result, &doc); err != nil {
				return err
			}
			cfg, err := spec.SearchConfig()
			if err != nil {
				return err
			}
			replays = append(replays, ms(x.replay(cfg, doc.Witness, doc.WorstCost, "replay."+specName(spec))))
		}
	}
	if len(submit) == 0 {
		return errors.New("no job of the mix completed")
	}
	jobs := float64(len(submit))
	x.notes["checkpoint.jobs"] = rows
	x.set("reprod.submit_ms", median(submit))
	x.set("reprod.queue_ms", median(queue))
	x.set("reprod.run_ms", median(run))
	x.set("reprod.fetch_ms", median(fetch))
	x.set("checkpoint.writes_per_job", float64(writes)/jobs)
	x.set("checkpoint.write_mb_per_job", float64(written)/jobs/(1<<20))
	x.set("checkpoint.write_amp", float64(written)/float64(final))
	x.set("checkpoint.write_ms", mean(writeMs))
	x.set("checkpoint.read_ms", mean(readMs))
	x.set("search.replay_ms", median(replays))
	left, err := dirBytes(data)
	if err != nil {
		return err
	}
	x.set("checkpoint.disk_left_mb", float64(left)/(1<<20))
	if err := x.units(); err != nil {
		return err
	}
	return x.compile()
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// checkpointCounters scrapes the server's cumulative checkpoint writes
// and bytes.
func (s *server) checkpointCounters() ([2]int64, error) {
	var out [2]int64
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "repro_checkpoint_writes_total":
			out[0] = v
		case "repro_checkpoint_bytes_total":
			out[1] = v
		}
	}
	return out, sc.Err()
}

// snapshotIO times checkpoint.Read of a job's final snapshot and
// checkpoint.Write of it to a scratch path: the median of three each.
func (x *traced) snapshotIO(path string) (readMs, writeMs float64, err error) {
	copyPath := filepath.Join(x.b.scratch, "snapshot-copy.rpck")
	var rs, ws []float64
	for i := 0; i < 3; i++ {
		end := x.tr.begin("checkpoint.Read")
		start := time.Now()
		snap, err := checkpoint.Read(path)
		rs = append(rs, ms(time.Since(start)))
		end()
		if err != nil {
			return 0, 0, err
		}
		end = x.tr.begin("checkpoint.Write")
		start = time.Now()
		err = checkpoint.Write(copyPath, snap)
		ws = append(ws, ms(time.Since(start)))
		end()
		if err != nil {
			return 0, 0, err
		}
	}
	return median(rs), median(ws), os.Remove(copyPath)
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// units expands the worst-case jobs of the mix into their checkpoint
// units and computes each, the granularity a durable run commits at.
func (x *traced) units() error {
	var times []float64
	for _, spec := range durableMix {
		if spec.Kind != jobspec.KindWorstcase {
			continue
		}
		cfg, err := spec.SearchConfig()
		if err != nil {
			return err
		}
		end := x.tr.begin("search.ExpandUnits." + specName(spec))
		units, err := search.ExpandUnits(cfg, 0)
		end()
		if err != nil {
			return err
		}
		end = x.tr.begin("search.ComputeUnit." + specName(spec))
		for _, u := range units {
			start := time.Now()
			if _, err := search.ComputeUnit(cfg, u); err != nil {
				end()
				return err
			}
			times = append(times, ms(time.Since(start)))
		}
		end()
	}
	x.set("search.units", float64(len(times)))
	x.set("search.unit_ms_p50", median(times))
	mx := 0.0
	for _, t := range times {
		mx = max(mx, t)
	}
	x.set("search.unit_ms_max", mx)
	return nil
}

// compile times jobspec's Normalize plus config compilation over the mix.
func (x *traced) compile() error {
	const rounds = 2000
	end := x.tr.begin("jobspec.compile")
	defer end()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, spec := range durableMix {
			s := spec
			var err error
			if s.Kind == jobspec.KindExplore {
				_, err = s.ExploreConfig()
			} else {
				_, err = s.SearchConfig()
			}
			if err != nil {
				return err
			}
		}
	}
	x.set("jobspec.compile_us", float64(time.Since(start).Microseconds())/float64(rounds*len(durableMix)))
	return nil
}

// tables computes every experiment table in this process, in suite order
// with the suite's parameters, and checks their concatenation against the
// golden fixture table by table; then it checks one run of the
// experiments CLI against the whole fixture.
func (x *traced) tables() error {
	golden, err := os.ReadFile(filepath.Join(x.b.root, "internal", "core", "testdata", "experiments.golden"))
	if err != nil {
		return err
	}
	suite := []func() (*core.Table, error){
		func() (*core.Table, error) { return core.ExperimentE1([]int{4, 8, 16, 32, 64, 128, 256}) },
		func() (*core.Table, error) { return core.ExperimentE2([]int{4, 16, 64, 256}) },
		func() (*core.Table, error) { return core.ExperimentE3([]int{1, 2, 3, 4}) },
		func() (*core.Table, error) { return core.ExperimentE3Growth(2, []int{16, 32, 64, 128, 256}) },
		func() (*core.Table, error) { return core.ExperimentE4(3) },
		func() (*core.Table, error) { return core.ExperimentE5([]int{4, 16, 64, 256}) },
		func() (*core.Table, error) { return core.ExperimentE6([]int{8, 16, 32, 64}) },
		func() (*core.Table, error) { return core.ExperimentE7([]int{2, 4, 8, 16, 32}) },
		func() (*core.Table, error) { return core.ExperimentE8([]int{4, 8, 16, 32}) },
		func() (*core.Table, error) { return core.ExperimentE9([]int{2, 4, 8, 16}) },
		func() (*core.Table, error) { return core.ExperimentE10([]int{2, 4, 8, 16}) },
		func() (*core.Table, error) { return core.ExperimentE11([]int{2, 4, 8, 16}) },
		core.ExperimentE12,
	}
	rest := golden
	for _, run := range suite {
		end := x.tr.begin("core.table")
		start := time.Now()
		t, err := run()
		d := time.Since(start)
		end()
		if err != nil {
			return err
		}
		x.tr.spans[len(x.tr.spans)-1].Name += "." + t.ID // the ID is known once the table exists
		text := []byte(t.Text())
		if x.check(func() error {
			if !bytes.HasPrefix(rest, text) {
				return fmt.Errorf("paper-tables: table %s differs from the golden fixture", t.ID)
			}
			return nil
		}()) {
			rest = rest[len(text):]
		}
		x.set("core.table_ms."+t.ID, ms(d))
	}
	// The suite as users run it: the experiments CLI, byte for byte.
	end := x.tr.begin("experiments.cli")
	p := runProc(x.b.path("experiments"))
	end()
	err = p.err
	if err == nil {
		err = checkGolden(p.stdout, golden)
	}
	x.check(err)
	return nil
}
