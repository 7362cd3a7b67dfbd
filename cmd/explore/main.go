// Command explore exhaustively enumerates every interleaving of a small
// signaling workload and checks Specification 4.1 on each history — the
// bounded model checker of internal/explore as a CLI.
//
// Usage:
//
//	explore -alg queue -waiters 2 -polls 2 -depth 10
//	explore -alg single-waiter -waiters 1 -polls 3 -depth 12
//	explore -alg queue -waiters 3 -polls 3 -depth 20 -workers 8
//	explore -alg queue -waiters 3 -depth 16 -checkpoint run.rpck
//
// The backtracking engine shards the schedule tree across -workers
// work-stealing workers (0 means one per core); results are identical for
// every worker count. -dedup=false forces the sequential legacy replay
// enumeration for A/B checks. -reduce layers partial-order and symmetry
// reduction on the dedup engine: sleep sets skip schedules that are
// permutations-by-commuting-swaps of explored ones, and PID-permuted
// states of interchangeable waiters merge into one canonical state; the
// Check verdict is unchanged while the visited state count (and the
// -json stepsSlept/symmetryMerges counters) reflect the reduction.
// -json prints the full result as one JSON
// object for CI and scripts, instead of the text summary. With
// -checkpoint the run is durable: units run one at a time on a single
// worker, whatever -workers says, and committed units are snapshotted
// between units once they have run at least 10x as long as the previous
// snapshot write took (and always at -stop-after, on an interrupt seen
// between units, and at the end). A killed run (or a -stop-after
// interruption; exit code 3) resumes with -resume to the byte-identical
// deterministic summary of an uninterrupted run; a kill -9 loses at most
// the units staged since the last write, about 10x that write's time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/errs"
	"repro/internal/explore"
	"repro/internal/jobspec"
	"repro/internal/prof"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		if errs.IsInterrupt(err) {
			os.Exit(3) // interrupted, snapshot intact: resume with -resume
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	algName := fs.String("alg", "flag", "signaling algorithm")
	waiters := fs.Int("waiters", 2, "number of polling waiters")
	polls := fs.Int("polls", 2, "polls per waiter")
	depth := fs.Int("depth", 10, "scheduling-choice depth bound")
	dedup := fs.Bool("dedup", true,
		"backtracking engine with state dedup; false forces the legacy replay enumeration (A/B checks)")
	reduce := fs.Bool("reduce", false,
		"layer partial-order + symmetry reduction on the dedup engine (same verdict, fewer states visited)")
	workers := fs.Int("workers", 0,
		"exploration workers sharding the schedule tree (0 = one per core); results are identical for every count")
	faults := fs.Int("faults", 0,
		"fault budget k: schedules may crash processes or drop CAS responses up to k times (0 = no faults)")
	faultKinds := fs.String("fault-kinds", "",
		"comma-separated fault kinds to inject: crash, lostcas (default crash,lostcas when -faults > 0)")
	faultVol := fs.String("fault-vol", "",
		"crash volatility: stable (frame lost only) or owned (owned words revert to initial values); default stable")
	jsonOut := fs.Bool("json", false, "print the full result as one JSON object")
	ckPath := fs.String("checkpoint", "",
		"snapshot file for a durable exploration; a killed run resumes with -resume")
	resume := fs.Bool("resume", false, "resume from the -checkpoint snapshot instead of starting fresh")
	shardDepth := fs.Int("shard-depth", 0, "checkpoint unit prefix depth (0 = default 3)")
	stopAfter := fs.Int("stop-after", 0,
		"deterministically interrupt after this many committed units (testing; exits 3)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "",
		"write a heap profile to this file (and an allocation profile to file.allocs) on exit")
	blockProfile := fs.String("blockprofile", "", "write a blocking profile to this file on exit")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	telemetryOut := fs.String("telemetry", "",
		"emit periodic NDJSON telemetry snapshots to this file (\"-\" = stderr); stdout stays byte-identical")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := prof.StartConfig(prof.Config{
		CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile,
	})
	if err != nil {
		return err
	}
	defer stopProf() // covers clean exits and the exit-code-3 interrupt path

	dv := *dedup
	spec := jobspec.Spec{
		Kind:       jobspec.KindExplore,
		Alg:        *algName,
		Waiters:    *waiters,
		Polls:      *polls,
		Depth:      *depth,
		Dedup:      &dv,
		Reduce:     *reduce,
		Workers:    *workers,
		Faults:     *faults,
		FaultKinds: *faultKinds,
		FaultVol:   *faultVol,
	}
	cfg, err := spec.ExploreConfig()
	if err != nil {
		return err
	}
	if *telemetryOut != "" {
		// Telemetry goes to its own sink (file or stderr), never stdout:
		// the deterministic summary must stay byte-identical with the
		// flag on or off.
		reg := telemetry.New()
		stopTel, err := telemetry.StartNDJSON(*telemetryOut, os.Stderr, reg, 0)
		if err != nil {
			return err
		}
		defer stopTel() // final snapshot on every exit path
		cfg.Telemetry = reg
	}

	start := time.Now()
	var res *explore.Result
	if *ckPath != "" {
		res, err = explore.RunCheckpointed(cfg, explore.Checkpoint{
			Path:       *ckPath,
			Tag:        spec.Alg,
			ShardDepth: *shardDepth,
			Resume:     *resume,
			StopAfter:  *stopAfter,
		})
	} else {
		res, err = explore.Run(cfg)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *jsonOut {
		// A violation returns an error above, so the doc always passes.
		return json.NewEncoder(out).Encode(jobspec.NewExploreDoc(&spec, res, ""))
	}
	// The first two lines are deterministic for any worker count; the
	// throughput line is the only timing-dependent output.
	fmt.Fprintf(out, "%s: %d interleavings explored (%d truncated at depth %d), specification holds on all\n",
		spec.Alg, res.Paths, res.Truncated, spec.Depth)
	fmt.Fprintf(out, "engine: %s, states deduped: %d, max depth reached: %d",
		res.Engine, res.StatesDeduped, res.MaxDepthReached)
	if res.Engine == explore.EngineBacktrackDedupPOR {
		fmt.Fprintf(out, ", steps slept: %d, symmetry merges: %d", res.StepsSlept, res.SymmetryMerges)
	}
	fmt.Fprintln(out)
	nodes := res.Paths + res.StatesDeduped
	fmt.Fprintf(out, "workers: %d, elapsed: %v, throughput: %.0f histories+prunes/s\n",
		res.Workers, elapsed.Round(time.Millisecond), float64(nodes)/elapsed.Seconds())
	return nil
}
