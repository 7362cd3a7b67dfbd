package explore

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/signal"
)

// symmetricConfigs are workloads with several identically-scripted waiters,
// where both halves of the reduction (sleep sets and PID canonicalization)
// have room to act. Keys name the config; the flag algorithm's waiters
// share one address, fixed-waiters gives each its own.
func symmetricConfigs() map[string]Config {
	waiters := func(n, polls int) map[memsim.PID][]memsim.CallKind {
		scripts := make(map[memsim.PID][]memsim.CallKind, n+1)
		for p := 0; p < n; p++ {
			s := make([]memsim.CallKind, polls)
			for i := range s {
				s[i] = memsim.CallPoll
			}
			scripts[memsim.PID(p)] = s
		}
		scripts[memsim.PID(n)] = []memsim.CallKind{memsim.CallSignal}
		return scripts
	}
	return map[string]Config{
		"flag-3w": {
			Factory:  signal.Flag().New,
			N:        4,
			Scripts:  waiters(3, 2),
			MaxDepth: 14,
			Check:    specCheck,
		},
		"fixed-3w": {
			Factory:  signal.FixedWaiters().New,
			N:        4,
			Scripts:  waiters(3, 2),
			MaxDepth: 14,
			Check:    specCheck,
		},
		"fixed-term-3w": {
			Factory:  signal.FixedWaitersTerminating().New,
			N:        4,
			Scripts:  waiters(3, 2),
			MaxDepth: 12,
			Check:    specCheck,
		},
	}
}

// TestReduceAgreesWithDedup is the exploration half of the A/B equivalence
// suite: on every seed and symmetric config the reduced engine reaches the
// same Check verdict as plain dedup, while visiting no more histories.
func TestReduceAgreesWithDedup(t *testing.T) {
	cfgs := seedConfigs()
	for name, cfg := range symmetricConfigs() {
		cfgs[name] = cfg
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			base := cfg
			base.Engine = EngineBacktrackDedup
			baseRes, baseErr := Run(base)
			red := cfg
			red.Engine = EngineBacktrackDedupPOR
			redRes, redErr := Run(red)
			if (baseErr == nil) != (redErr == nil) {
				t.Fatalf("verdicts differ: dedup %v, reduced %v", baseErr, redErr)
			}
			if baseErr != nil {
				return // both failed: violation presence agrees
			}
			if redRes.Paths > baseRes.Paths {
				t.Fatalf("reduction visited more histories: %d > %d", redRes.Paths, baseRes.Paths)
			}
			// Truncation status is permutation- and commutation-invariant
			// (equivalent schedules have equal length), so the reduced run
			// may only drop truncated histories, never conjure them.
			if baseRes.Truncated == 0 && redRes.Truncated != 0 {
				t.Fatalf("reduction introduced truncated histories: %+v", redRes)
			}
			t.Logf("dedup %d paths / reduced %d paths (%d slept, %d sym merges)",
				baseRes.Paths, redRes.Paths, redRes.StepsSlept, redRes.SymmetryMerges)
		})
	}
}

// TestReduceFindsPlantedViolation: the reduced engine must keep at least one
// representative of every equivalence class, so planted violations — both
// the state-visible and the prefix-sensitive kind — stay reachable.
func TestReduceFindsPlantedViolation(t *testing.T) {
	broken := Config{
		Factory: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			return brokenResumable{b: m.Alloc(memsim.NoOwner, "B", 1, 0)}, nil
		},
		N: 2,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll},
			1: {memsim.CallSignal},
		},
		MaxDepth: 6,
		Engine:   EngineBacktrackDedupPOR,
		Check:    specCheck,
	}
	if _, err := Run(broken); err == nil {
		t.Error("reduced engine missed the planted broken-poll violation")
	}

	deaf := Config{
		Factory: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			return deafPollInstance{b: m.Alloc(memsim.NoOwner, "B", 1, 0)}, nil
		},
		N: 2,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll},
			1: {memsim.CallSignal},
		},
		MaxDepth: 8,
		Engine:   EngineBacktrackDedupPOR,
		Check:    specCheck,
	}
	if _, err := Run(deaf); err == nil {
		t.Error("reduced engine missed the prefix-sensitive poll-false violation")
	}
}

// TestReducePrunes: on symmetric workloads the reduction must actually bite
// on both axes — commuting children slept and PID-permuted states merged.
func TestReducePrunes(t *testing.T) {
	slept, merged := 0, 0
	for name, cfg := range symmetricConfigs() {
		cfg.Engine = EngineBacktrackDedupPOR
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slept += res.StepsSlept
		merged += res.SymmetryMerges
	}
	if slept == 0 {
		t.Error("sleep sets never pruned a child across the symmetric configs")
	}
	if merged == 0 {
		t.Error("symmetry canonicalization never merged a permuted state")
	}
}

// TestReduceCountersDeterministicAcrossWorkers: every counter of the reduced
// engine — including the new StepsSlept and SymmetryMerges — is a function
// of the configuration alone, identical for 1, 2, 4 and 8 workers.
func TestReduceCountersDeterministicAcrossWorkers(t *testing.T) {
	for name, cfg := range symmetricConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Engine = EngineBacktrackDedupPOR
			var want *Result
			for _, workers := range []int{1, 2, 4, 8} {
				c := cfg
				c.Workers = workers
				res, err := Run(c)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if want == nil {
					want = res
					continue
				}
				if res.Paths != want.Paths || res.Truncated != want.Truncated ||
					res.StatesDeduped != want.StatesDeduped ||
					res.StepsSlept != want.StepsSlept ||
					res.SymmetryMerges != want.SymmetryMerges ||
					res.MaxDepthReached != want.MaxDepthReached {
					t.Fatalf("workers=%d diverged:\n 1: %+v\n %d: %+v", workers, want, workers, res)
				}
			}
			t.Logf("stable across 1-8 workers: %+v", want)
		})
	}
}

// TestReduceWideNode: crash choices push a node's choice count up to 3n,
// past the 64 that the sleep-set PID masks bound n by. The reduced engine
// must still replay through and expand such a node. The test positions
// the engine along first call starts until a node has more than 65
// choices, then runs the one-level subtree below it as a task, so the
// prefix replay also crosses a node with more than 64 choices.
func TestReduceWideNode(t *testing.T) {
	const waiters = 40
	scripts := map[memsim.PID][]memsim.CallKind{waiters: {memsim.CallSignal}}
	for p := 0; p < waiters; p++ {
		scripts[memsim.PID(p)] = []memsim.CallKind{memsim.CallPoll}
	}
	cfg := Config{
		Factory: signal.Flag().New,
		N:       waiters + 1,
		Scripts: scripts,
		Check:   specCheck,
		Faults:  memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash},
		Workers: 1,
	}
	e, err := newBengine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prefix []int
	for choices := e.Settle(); len(choices) <= 65; choices = e.Settle() {
		i := 0
		for !choices[i].Start {
			i++
		}
		if err := e.Step(choices[i], i); err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, i)
	}
	cfg.MaxDepth = len(prefix) + 1
	s := &search{cfg: cfg, workers: 1, reduce: true, table: newDedupTable()}
	w, err := newSearcher(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.runTask(prefix); err != nil {
		t.Fatal(err)
	}
	if w.paths == 0 {
		t.Fatal("the wide node expanded no children")
	}
}
