package search

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
)

// TestReduceWideNode: crash choices push a node's choice count up to 3n,
// past the 64 that the sleep-set PID masks bound n by. The reduced search
// must still replay through and expand such a node. The test positions
// the engine along first call starts until a node has more than 65
// choices, then computes the one-level subtree below it as a task, so the
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
		Model:   model.ModelDSM,
		Mode:    ModeExhaustive,
		Workers: 1,
		Reduce:  true,
		Faults:  memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash},
	}
	e, err := newSengine(cfg)
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
	s := &bnb{cfg: cfg, workers: 1, table: newMemoTable(), abort: make(chan struct{})}
	w, err := newHunter(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.red == nil {
		t.Fatal("DSM search did not reduce")
	}
	if err := w.runTask(prefix); err != nil {
		t.Fatal(err)
	}
	if w.paths == 0 {
		t.Fatal("the wide node expanded no children")
	}
}
