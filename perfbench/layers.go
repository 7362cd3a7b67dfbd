package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/jobspec"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
)

// Per-layer costs from seeded random walks of a workload's configuration.
// A hand-rolled walker drives the algorithm's resumable frames over one
// machine the way the engines do, and at every node times each layer's
// public call in a small batch of repeats on the node's real state. The
// repeats run on warm caches, so the figures are the layers' hot costs.

// walkConfig is the workload shape a walk runs: Waiters polling
// processes, one spare and one signaler (jobspec.Spec.Scripts).
type walkConfig struct {
	alg            string
	waiters, polls int
	depth          int
	model          model.Scorer
}

// layerCosts are a walk set's mean costs per call (per node for clone
// and key, which cover every live frame of the node).
type layerCosts struct {
	StepNs        float64 `json:"step_ns"`
	ApplyRevertNs float64 `json:"apply_revert_ns"`
	CloneNs       float64 `json:"frame_clone_ns"`
	KeyNs         float64 `json:"key_ns"`
	KeyBytes      float64 `json:"key_bytes"`
	AddNs         float64 `json:"add_ns"`
	ForkNs        float64 `json:"fork_ns"`
	StateNs       float64 `json:"state_ns"`
	StateBytes    float64 `json:"state_bytes"`
	Nodes         int     `json:"nodes"`
}

// perNodeNs is the layer time the engines spend per visited node under
// the attribution model of the README: each node is keyed once and
// snapshotted once, and its incoming edge applies, reverts and restores
// once; a search additionally prices the edge, forks the accumulator on
// save and restore, and encodes the model state into the memo key.
func (c layerCosts) perNodeNs(search bool) float64 {
	ns := c.ApplyRevertNs + 2*c.CloneNs + c.KeyNs
	if search {
		ns += c.AddNs + 2*c.ForkNs + c.StateNs
	}
	return ns
}

const (
	walksPerConfig = 1500
	repeats        = 8 // calls per timed batch
)

var sink byte // keeps timed results alive

// timerCost is the cost of one time.Now/time.Since pair, subtracted from
// every timed batch.
func timerCost() time.Duration {
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(time.Now())
	}
	return time.Since(start) / n
}

// accum sums timed batches.
type accum struct {
	ns    time.Duration
	calls int
}

func (a *accum) add(d, overhead time.Duration, calls int) {
	if d -= overhead; d > 0 {
		a.ns += d
	}
	a.calls += calls
}

func (a accum) mean() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.calls)
}

// walker is one deployment of the workload, driven by explicit choices.
type walker struct {
	mach     *memsim.Machine
	inst     memsim.ResumableInstance
	scripts  [][]memsim.CallKind
	frames   []memsim.Resumable
	pending  []memsim.Access
	phase    []uint8 // idle, pending, done
	rets     []memsim.Value
	progress []int
	calls    []int
	kinds    []memsim.CallKind
}

const (
	phIdle uint8 = iota
	phPending
	phDone
)

// wchoice is one open scheduling choice: grant pid's pending access, or
// start its next scripted call.
type wchoice struct {
	pid   memsim.PID
	start bool
}

// scriptsOf is the workload shape of jobspec.Spec.Scripts as a slice
// indexed by PID, so a walk visits the processes in a fixed order.
func scriptsOf(c walkConfig) (int, [][]memsim.CallKind) {
	spec := jobspec.Spec{Waiters: c.waiters, Polls: c.polls}
	n, byPID := spec.Scripts()
	scripts := make([][]memsim.CallKind, n)
	for pid, script := range byPID {
		scripts[pid] = script
	}
	return n, scripts
}

func newWalker(c walkConfig) (*walker, error) {
	alg, err := signal.ByName(c.alg)
	if err != nil {
		return nil, err
	}
	n, scripts := scriptsOf(c)
	m := memsim.NewMachine(n)
	inst, err := alg.New(m, n)
	if err != nil {
		return nil, err
	}
	ri, ok := inst.(memsim.ResumableInstance)
	if !ok {
		return nil, fmt.Errorf("%s has no resumable frames", c.alg)
	}
	return &walker{
		mach: m, inst: ri, scripts: scripts,
		frames: make([]memsim.Resumable, n), pending: make([]memsim.Access, n),
		phase: make([]uint8, n), rets: make([]memsim.Value, n),
		progress: make([]int, n), calls: make([]int, n), kinds: make([]memsim.CallKind, n),
	}, nil
}

func (w *walker) settle(choices []wchoice) []wchoice {
	for p, script := range w.scripts {
		if script == nil {
			continue
		}
		if w.phase[p] == phDone {
			w.phase[p], w.frames[p] = phIdle, nil
			if w.kinds[p] == memsim.CallPoll && w.rets[p] != 0 {
				w.progress[p] = len(script) // a waiter that saw the signal stops
			}
		}
		switch {
		case w.phase[p] == phPending:
			choices = append(choices, wchoice{pid: memsim.PID(p)})
		case w.phase[p] == phIdle && w.progress[p] < len(script):
			choices = append(choices, wchoice{pid: memsim.PID(p), start: true})
		}
	}
	return choices
}

func (w *walker) advance(p memsim.PID, prev memsim.Result) {
	if acc, ok := w.frames[p].Next(prev); ok {
		w.pending[p], w.phase[p] = acc, phPending
	} else {
		w.rets[p], w.phase[p] = w.frames[p].Return(), phDone
	}
}

// apply performs c and returns the access event it produced, if any.
func (w *walker) apply(c wchoice) (memsim.Event, bool, error) {
	p := c.pid
	if c.start {
		kind := w.scripts[p][w.progress[p]]
		r, err := w.inst.ResumableProgram(p, kind)
		if err != nil {
			return memsim.Event{}, false, err
		}
		w.frames[p], w.kinds[p] = r, kind
		w.progress[p]++
		w.calls[p]++
		w.advance(p, memsim.Result{})
		return memsim.Event{}, false, nil
	}
	acc := w.pending[p]
	res, _ := w.mach.ApplyLogged(p, acc)
	ev := memsim.Event{
		Kind: memsim.EvAccess, PID: p, CallSeq: w.calls[p] - 1,
		Proc: w.kinds[p].String(), Acc: acc, Res: res,
	}
	w.advance(p, res)
	return ev, true, nil
}

// measureLayers walks cfg walksPerConfig times from seeded random
// choices and returns the layers' mean costs.
func measureLayers(cfg walkConfig, seed uint64) (layerCosts, error) {
	rng := rand.New(rand.NewPCG(seed, 2))
	over := timerCost()
	var ar, clone, key, fork, state, add accum
	var keyBytes, stateBytes, nodes int
	var keyBuf, stateBuf []byte
	var choices []wchoice
	clones := make([]memsim.Resumable, cfg.waiters+2)
	for walk := 0; walk < walksPerConfig; walk++ {
		w, err := newWalker(cfg)
		if err != nil {
			return layerCosts{}, err
		}
		acc := cfg.model.Begin(len(w.frames), w.mach.Owner)
		forker, _ := acc.(model.ForkableAccumulator)
		reuser, _ := acc.(model.ReusingForker)
		var spare model.Accumulator
		appender, _ := acc.(model.ModelStateAppender)
		var events []memsim.Event
		for depth := 0; depth < cfg.depth; depth++ {
			choices = w.settle(choices[:0])
			if len(choices) == 0 {
				break
			}
			nodes++

			t := time.Now()
			for r := 0; r < repeats; r++ {
				keyBuf = w.mach.AppendKeyState(keyBuf[:0])
				for i, f := range w.frames {
					if w.scripts[i] != nil { // the engines key scripted processes only
						keyBuf = memsim.AppendKeyFrameState(keyBuf, f)
					}
				}
				sink ^= memsim.HashKey128(keyBuf)[0]
			}
			key.add(time.Since(t), over, repeats)
			keyBytes += len(keyBuf)

			t = time.Now()
			for r := 0; r < repeats; r++ {
				for i, f := range w.frames {
					if f != nil {
						clones[i] = memsim.CloneResumableInto(clones[i], f)
					}
				}
			}
			clone.add(time.Since(t), over, repeats)

			for _, c := range choices {
				if c.start {
					continue
				}
				t = time.Now()
				for r := 0; r < repeats; r++ {
					_, u := w.mach.ApplyLogged(c.pid, w.pending[c.pid])
					w.mach.Revert(u)
				}
				ar.add(time.Since(t), over, repeats)
				break
			}

			// The engines' save and restore fork into a retained spare
			// when the model can (search.forkAcc), so time that path.
			if reuser != nil {
				t = time.Now()
				for r := 0; r < repeats; r++ {
					spare = reuser.ForkReuse(spare)
				}
				fork.add(time.Since(t), over, repeats)
			} else if forker != nil {
				t = time.Now()
				for r := 0; r < repeats; r++ {
					_ = forker.Fork()
				}
				fork.add(time.Since(t), over, repeats)
			}
			if appender != nil {
				t = time.Now()
				for r := 0; r < repeats; r++ {
					stateBuf = appender.AppendModelState(stateBuf[:0])
				}
				state.add(time.Since(t), over, repeats)
				stateBytes += len(stateBuf)
			}

			ev, ok, err := w.apply(choices[rng.IntN(len(choices))])
			if err != nil {
				return layerCosts{}, err
			}
			if ok {
				acc.Add(ev)
				events = append(events, ev)
			}
		}
		// Price the walk's events again on fresh accumulators, timed as
		// one batch per pass.
		for r := 0; r < repeats && len(events) > 0; r++ {
			fresh := cfg.model.Begin(len(w.frames), w.mach.Owner)
			t := time.Now()
			for _, ev := range events {
				fresh.Add(ev)
			}
			add.add(time.Since(t), over, len(events))
		}
	}
	c := layerCosts{
		ApplyRevertNs: ar.mean(),
		CloneNs:       clone.mean(),
		KeyNs:         key.mean(),
		AddNs:         add.mean(),
		ForkNs:        fork.mean(),
		StateNs:       state.mean(),
		Nodes:         nodes,
	}
	if nodes > 0 {
		c.KeyBytes = float64(keyBytes) / float64(nodes)
		c.StateBytes = float64(stateBytes) / float64(nodes)
	}
	var err error
	c.StepNs, err = measureStep(cfg, seed, over)
	return c, err
}

// measureStep times memsim.Execution.Step, the controller-driven step the
// core drive loops and witness replay use, on seeded walks of cfg.
func measureStep(cfg walkConfig, seed uint64, over time.Duration) (float64, error) {
	alg, err := signal.ByName(cfg.alg)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewPCG(seed, 3))
	n, scripts := scriptsOf(cfg)
	var step accum
	var choices []wchoice
	for walk := 0; walk < walksPerConfig; walk++ {
		exec, err := memsim.NewExecution(alg.New, n)
		if err != nil {
			return 0, err
		}
		progress := make([]int, n)
		kinds := make([]memsim.CallKind, n)
		for depth := 0; depth < cfg.depth; depth++ {
			choices = choices[:0]
			for p, script := range scripts {
				pid := memsim.PID(p)
				if script == nil {
					continue
				}
				if _, ended := exec.CallEnded(pid); ended {
					ret, err := exec.Finish(pid)
					if err != nil {
						exec.Close()
						return 0, err
					}
					if kinds[p] == memsim.CallPoll && ret != 0 {
						progress[p] = len(script)
					}
				}
				if _, ok := exec.Pending(pid); ok {
					choices = append(choices, wchoice{pid: pid})
				} else if exec.Idle(pid) && progress[p] < len(script) {
					choices = append(choices, wchoice{pid: pid, start: true})
				}
			}
			if len(choices) == 0 {
				break
			}
			c := choices[rng.IntN(len(choices))]
			if c.start {
				kinds[c.pid] = scripts[c.pid][progress[c.pid]]
				progress[c.pid]++
				err = exec.Start(c.pid, kinds[c.pid])
			} else {
				t := time.Now()
				_, err = exec.Step(c.pid)
				step.add(time.Since(t), over, 1)
			}
			if err != nil {
				exec.Close()
				return 0, err
			}
		}
		exec.Close()
	}
	return step.mean(), nil
}
