package explore

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/memsim"
	"repro/internal/signal"
	"repro/internal/statespace"
)

// Differential state-key tests: the binary stateKey and the legacy
// reflective stateKeyLegacy must induce the same partition over engine
// states, for every listed algorithm — equal legacy keys if and only if
// equal binary keys, across every node of a bounded exploration tree.
// This is the property the dedup table's claim-once determinism rests on
// after the encoder swap.

// stateKeyLegacy is the original reflective fmt-walk state key. It is the
// oracle of the encoder-equivalence tests: the binary stateKey must merge
// exactly the states this key merges, for every algorithm.
func (e *bengine) stateKeyLegacy() [16]byte {
	h := fnv.New128a()
	for a := 0; a < e.Mach.Size(); a++ {
		fmt.Fprintf(h, "w%d;", e.Mach.Load(memsim.Addr(a)))
	}
	for pid := 0; pid < e.N; pid++ {
		if addr, ok := e.Mach.LLState(memsim.PID(pid)); ok {
			fmt.Fprintf(h, "ll%d=%d;", pid, addr)
		}
	}
	fmt.Fprintf(h, "sig%v,%v;", e.sigStarted, e.sigEnded)
	if e.Faults.Enabled() {
		fmt.Fprintf(h, "faults%d;", e.FaultsUsed)
	}
	for pid := 0; pid < e.N; pid++ {
		p := memsim.PID(pid)
		if e.Scripts[p] == nil {
			continue
		}
		fmt.Fprintf(h, "p%d:%d,%d,%d,%v;", pid, e.Phase[p], e.calls[p], e.Progress[p],
			e.Phase[p] != statespace.Idle && e.afterSigEnd[p])
		if e.Phase[p] == statespace.Pending {
			acc := e.Pending[p]
			fmt.Fprintf(h, "a%d,%d,%d,%d;", acc.Op, acc.Addr, acc.Arg1, acc.Arg2)
		}
		if f := e.Frames[p]; f != nil {
			io.WriteString(h, "f")
			memsim.EncodeFrameState(h, f)
			io.WriteString(h, ";")
		}
	}
	var key [16]byte
	copy(key[:], h.Sum(nil))
	return key
}

// partitionConfig builds the per-algorithm workload the partition walk
// quantifies over: two pollers, one signaler, bounded depth.
func partitionConfig(alg signal.Algorithm) Config {
	return Config{
		Factory: alg.New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 7,
	}
}

// keyWalk explores the schedule tree to maxDepth and checks at every node
// that the legacy-key → binary-key relation stays a bijection. The binary
// side uses the raw encoded key bytes (e.KeyBuf after stateKey), not just
// the 128-bit hash, so an encoding that accidentally merged states would
// be caught even if the hashes happened to collide the same way.
func keyWalk(t *testing.T, e *bengine, maxDepth int) int {
	t.Helper()
	legacyToBin := map[[16]byte]string{}
	binToLegacy := map[string][16]byte{}
	nodes := 0
	var walk func(depth int)
	walk = func(depth int) {
		choices := e.SettleAt(depth)
		legacy := e.stateKeyLegacy()
		e.stateKey()
		bin := string(e.KeyBuf)
		nodes++
		if prev, ok := legacyToBin[legacy]; ok {
			if prev != bin {
				t.Fatalf("legacy key maps to two binary keys at depth %d", depth)
			}
		} else {
			legacyToBin[legacy] = bin
		}
		if prev, ok := binToLegacy[bin]; ok {
			if prev != legacy {
				t.Fatalf("binary key maps to two legacy keys at depth %d", depth)
			}
		} else {
			binToLegacy[bin] = legacy
		}
		if len(choices) == 0 || depth >= maxDepth {
			return
		}
		m := e.save()
		for i, c := range choices {
			if err := e.Step(c, i); err != nil {
				t.Fatalf("apply: %v", err)
			}
			walk(depth + 1)
			e.restore(m)
		}
		e.release(m)
	}
	walk(0)
	if len(legacyToBin) < 2 {
		t.Fatalf("partition walk is vacuous: %d distinct states", len(legacyToBin))
	}
	return nodes
}

// TestStateKeyPartitionMatchesLegacy: for every algorithm the explorer
// lists, the binary and legacy state keys partition the reachable engine
// states identically.
func TestStateKeyPartitionMatchesLegacy(t *testing.T) {
	for _, alg := range signal.All() {
		t.Run(alg.Name, func(t *testing.T) {
			cfg := partitionConfig(alg)
			if !backtrackable(cfg) {
				t.Skipf("%s has no resumable tier for this script", alg.Name)
			}
			e, err := newBengine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes := keyWalk(t, e, cfg.MaxDepth)
			t.Logf("%d nodes walked", nodes)
		})
	}
}

// TestStateKeyZeroAllocs pins the hot path's allocation discipline: one
// encode+hash of a steady-state node allocates nothing, and one
// snapshot/restore cycle on a pooled node allocates nothing, once the
// engine's scratch buffers and free lists are warm.
func TestStateKeyZeroAllocs(t *testing.T) {
	cfg := partitionConfig(signal.QueueSignal())
	e, err := newBengine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: settle and descend a couple of steps so frames are live,
	// then exercise the key and snapshot paths once to size the scratch.
	for depth := 0; depth < 3; depth++ {
		choices := e.SettleAt(depth)
		if len(choices) == 0 {
			break
		}
		if err := e.Step(choices[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	e.SettleAt(3)
	e.stateKey()
	m := e.save()
	e.restore(m)
	e.release(m)

	if n := testing.AllocsPerRun(100, func() { e.stateKey() }); n != 0 {
		t.Errorf("stateKey allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m := e.save()
		e.restore(m)
		e.release(m)
	}); n != 0 {
		t.Errorf("save/restore/release cycle allocates %v per run, want 0", n)
	}
}
