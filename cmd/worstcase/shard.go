package main

// Cross-process sharding: -shards N re-executes this binary N times with
// -shard-worker, feeds each worker unit prefixes as JSON lines on stdin,
// and reads one search.UnitResult JSON line back per unit. Workers are
// pure functions of (flag set, prefix) — see internal/search/sharded.go —
// so the merged result is deterministic for any shard count and any
// assignment of units to workers. With -checkpoint the coordinator
// snapshots its accumulated (entries, counters, done set) through
// checkpoint.Run, the driver the in-process search uses, so a killed
// coordinator resumes without recomputing the units its last snapshot
// holds; in-flight and unwritten units are simply recomputed.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/jobspec"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// The env hooks that let the coordinator re-execute itself as a worker
// even when "itself" is a test binary: main_test.go's TestMain runs
// run(workerArgs) and exits when workerEnv is set, before the testing
// package ever parses flags.
const (
	workerEnv     = "GO_WORSTCASE_WORKER"
	workerArgsEnv = "GO_WORSTCASE_ARGS"
)

// unitRequest is one line of the coordinator-to-worker stream.
type unitRequest struct {
	Prefix []int `json:"prefix"`
}

// unitReply is one line of the worker-to-coordinator stream.
type unitReply struct {
	Result *search.UnitResult `json:"result,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// serveShardUnits is the -shard-worker loop: compute every requested unit
// against a fresh private table until stdin closes.
func serveShardUnits(cfg search.Config, in io.Reader, out io.Writer) error {
	dec := json.NewDecoder(in)
	enc := json.NewEncoder(out)
	for {
		var req unitRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("shard worker: read request: %w", err)
		}
		var rep unitReply
		if res, err := search.ComputeUnit(cfg, req.Prefix); err != nil {
			rep.Error = err.Error()
		} else {
			rep.Result = res
		}
		if err := enc.Encode(rep); err != nil {
			return fmt.Errorf("shard worker: write reply: %w", err)
		}
	}
}

// shardWorker is one live worker process and its two JSON streams.
type shardWorker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

func startShardWorker(spec jobspec.Spec, errOut io.Writer) (*shardWorker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("shard coordinator: %w", err)
	}
	argv := []string{
		"-alg", spec.Alg, "-model", spec.Model,
		"-n", strconv.Itoa(spec.Waiters), "-polls", strconv.Itoa(spec.Polls),
		"-depth", strconv.Itoa(spec.Depth), "-mode", spec.Mode,
		"-shard-worker",
	}
	blob, err := json.Marshal(argv)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, argv...)
	cmd.Env = append(os.Environ(), workerEnv+"=1", workerArgsEnv+"="+string(blob))
	cmd.Stderr = errOut
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("shard coordinator: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("shard coordinator: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard coordinator: start worker: %w", err)
	}
	return &shardWorker{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out)}, nil
}

// compute round-trips one unit through the worker.
func (w *shardWorker) compute(prefix []int) (*search.UnitResult, error) {
	if err := w.enc.Encode(unitRequest{Prefix: prefix}); err != nil {
		return nil, fmt.Errorf("send unit: %w", err)
	}
	var rep unitReply
	if err := w.dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("read unit result: %w", err)
	}
	if rep.Error != "" {
		return nil, errors.New(rep.Error)
	}
	if rep.Result == nil {
		return nil, errors.New("worker sent neither result nor error")
	}
	return rep.Result, nil
}

// shutdown closes the worker's stdin (ending its loop) and reaps it.
func (w *shardWorker) shutdown() error {
	w.in.Close()
	return w.cmd.Wait()
}

// kill tears a worker down without waiting for a clean exit.
func (w *shardWorker) kill() {
	w.in.Close()
	w.cmd.Process.Kill()
	w.cmd.Wait()
}

type unitOutcome struct {
	idx int
	res *search.UnitResult
	err error
}

// runCoordinator shards the exhaustive search across worker processes and
// merges their unit results into the single-process answer. Results are
// committed in unit order through the same durable-run driver as the
// in-process search, so a run without a checkpoint path differs only in
// persisting nothing.
func runCoordinator(cfg search.Config, spec jobspec.Spec, shards int, ck checkpoint.Options,
	meter *telemetry.Meter, errOut io.Writer) (*search.Result, error) {
	d := checkpoint.ClampShardDepth(ck.ShardDepth, cfg.MaxDepth)
	units, err := search.ExpandUnits(cfg, d)
	if err != nil {
		return nil, err
	}
	run := &checkpoint.Run{
		Options: ck,
		Snap: checkpoint.Snapshot{Kind: checkpoint.KindSearch,
			Fingerprint: search.Fingerprint(spec.Alg, cfg, d, true), ShardDepth: d, Units: units},
		Meter: meter,
		Clock: commitClock,
	}
	if err := run.Open(); err != nil {
		return nil, err
	}
	done := run.Snap.DoneSet()
	var pending []int
	for i := range units {
		if !done[uint32(i)] {
			pending = append(pending, i)
		}
	}

	var workers []*shardWorker
	for i := 0; i < min(shards, len(pending)); i++ {
		w, err := startShardWorker(spec, errOut)
		if err != nil {
			for _, started := range workers {
				started.kill()
			}
			return nil, err
		}
		workers = append(workers, w)
	}
	feed := make(chan int)
	results := make(chan unitOutcome, len(workers))
	stopFeed := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *shardWorker) {
			defer wg.Done()
			for idx := range feed {
				res, err := w.compute(units[idx])
				results <- unitOutcome{idx: idx, res: res, err: err}
				if err != nil {
					return // a broken stream cannot carry further units
				}
			}
		}(w)
	}
	go func() {
		defer close(feed)
		for _, idx := range pending {
			select {
			case feed <- idx:
			case <-stopFeed:
				return
			}
		}
	}()
	go func() { wg.Wait(); close(results) }()

	// Workers finish units in any order; the commit loop takes them in
	// unit order, so the committer weighs each write against the wall
	// time spent waiting for results.
	arrived := map[int]*search.UnitResult{}
	var total checkpoint.Counters
	var failed error
	unit := func(i int) error {
		for arrived[i] == nil {
			out, ok := <-results
			if !ok {
				failed = fmt.Errorf("shard unit %v: every worker has exited", units[i])
				return failed
			}
			if out.err != nil {
				failed = fmt.Errorf("shard unit %v: %w", units[out.idx], out.err)
				return failed
			}
			arrived[out.idx] = out.res
		}
		total.Add(arrived[i].Counters)
		run.Snap.Entries = append(run.Snap.Entries, arrived[i].Entry)
		delete(arrived, i)
		return nil
	}
	err = run.CommitUnits(unit, func() checkpoint.Counters { return total }, nil)
	if failed != nil {
		// Every committed unit is a finished result, so a failed worker
		// costs none of them; the worker's error is the one to report.
		_ = run.Flush()
	}
	close(stopFeed)
	for range results {
		// Drain the units still in flight so every worker goroutine exits.
	}
	for _, w := range workers {
		if serr := w.shutdown(); serr != nil && err == nil {
			err = fmt.Errorf("shard worker exit: %w", serr)
		}
	}
	if err != nil {
		return nil, err
	}
	return search.MergeShardedState(cfg, run.Snap.Entries, run.Snap.Counters)
}

// commitClock is the clock the coordinator's snapshot committer reads
// (nil means time.Now); tests replace it to pace writes deterministically.
var commitClock func() time.Time
