package search

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
	"repro/internal/statespace"
)

// Key-byte pins. Checkpoint snapshots and unit results carry state-key
// hashes, so a snapshot written by one build resumes on another only if
// both encode every state to the same bytes. The partition suites cannot
// see a change that keeps the partition but moves the bytes; these
// digests can. Each walk visits the full schedule tree of a fixed config
// (no memo) and folds every node's plain key — and, when reducing, its
// reduced key over the node's sleep set — into one FNV-128 digest. A
// digest change means existing .rpck snapshots no longer resume.

// keyDigest walks cfg's schedule tree and digests the encoded keys. With
// reduce, the walk follows the reduced tree (slept children skipped) and
// digests both keys at every node.
func keyDigest(t *testing.T, cfg Config, reduce bool) string {
	t.Helper()
	e, err := newSengine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var red *statespace.Reduction
	if reduce {
		if red = newReduction(e, cfg.Model); red == nil {
			t.Fatalf("%s asserts no reduction capability", cfg.Model.Name())
		}
	}
	h := fnv.New128a()
	var lenBuf [binary.MaxVarintLen64]byte
	write := func(b []byte) {
		h.Write(binary.AppendUvarint(lenBuf[:0], uint64(len(b))))
		h.Write(b)
	}
	nodes := 0
	var walk func(depth int, sleep uint64)
	walk = func(depth int, sleep uint64) {
		choices := e.SettleAt(depth)
		e.stateKey()
		write(e.KeyBuf)
		var earlier []uint64
		if red != nil {
			red.StateKey(sleep)
			write(e.KeyBuf)
			if red.POR() {
				earlier = red.EarlierMasks(depth, choices)
			}
		}
		nodes++
		if len(choices) == 0 || depth >= cfg.MaxDepth {
			return
		}
		m := e.save()
		for i, c := range choices {
			if earlier != nil && c.Sleeps(sleep) {
				continue
			}
			cAcc := e.Pending[c.PID]
			if _, err := e.apply(c, i); err != nil {
				t.Fatal(err)
			}
			var child uint64
			if earlier != nil {
				child = red.ChildSleep(sleep, earlier[i], choices, i, cAcc)
			}
			walk(depth+1, child)
			e.restore(m)
		}
		e.release(m)
	}
	walk(0, 0)
	return fmt.Sprintf("%x/%d", h.Sum(nil), nodes)
}

// TestSearchStateKeyDigests pins the key bytes of the plain encoding
// under the DSM and CC models, the reduced encoding under DSM (sleep sets
// and symmetry), and both with an enabled fault policy.
func TestSearchStateKeyDigests(t *testing.T) {
	waiters := func(factory memsim.Factory, depth int) Config {
		scripts := map[memsim.PID][]memsim.CallKind{3: {memsim.CallSignal}}
		for p := 0; p < 3; p++ {
			scripts[memsim.PID(p)] = []memsim.CallKind{memsim.CallPoll, memsim.CallPoll}
		}
		return Config{Factory: factory, N: 4, Scripts: scripts, MaxDepth: depth,
			Model: model.ModelDSM, Mode: ModeExhaustive, Workers: 1}
	}
	faulty := waiters(signal.FixedWaiters().New, 9)
	faulty.Faults = memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash | memsim.SetLostCAS, Vol: memsim.VolOwned}
	ccFlag := waiters(signal.Flag().New, 12)
	ccFlag.Model = model.ModelCC
	casFaults := partitionConfig(signal.CASRegister(), model.ModelCC)
	casFaults.Faults = memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash | memsim.SetLostCAS}
	for _, tc := range []struct {
		name   string
		cfg    Config
		reduce bool
		want   string
	}{
		{"dsm/queue", partitionConfig(signal.QueueSignal(), model.ModelDSM), false, "1217e25ca21d7e5f88ec99be3cf3a852/1008"},
		{"cc/queue", partitionConfig(signal.QueueSignal(), model.ModelCC), false, "a5ab788abb147ea00c6cacd33ccab8d9/1008"},
		{"cc-wb/flag", partitionConfig(signal.Flag(), model.ModelCCWriteBack), false, "ebf29af8fd385638cd6a700bde331f87/487"},
		{"reduced-dsm/flag-3w", waiters(signal.Flag().New, 12), true, "e2d1b7e2c4614e32eba3c9600283b016/572"},
		{"reduced-dsm/fixed-3w", waiters(signal.FixedWaiters().New, 12), true, "c2d2f6850fa2d60792363eaa08b96bae/889"},
		{"reduced-cc/flag-3w", ccFlag, true, "dc9ccf6e75bd95c543b851870e4bcb20/572"},
		{"faults/reduced-dsm/fixed-3w", faulty, true, "c625704176fd6360d752312acc0f9904/17799"},
		{"faults/cc/cas-register", casFaults, false, "97d3f8b2295dd8f620d3d5a187f4d9fc/4161"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := keyDigest(t, tc.cfg, tc.reduce); got != tc.want {
				t.Errorf("key digest = %q, want %q", got, tc.want)
			}
		})
	}
}
