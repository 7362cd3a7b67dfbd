package explore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/memsim"
	"repro/internal/signal"
	"repro/internal/statespace"
)

// Key-byte pins. Checkpoint snapshots store state-key hashes, so a
// snapshot written by one build resumes on another only if both encode
// every state to the same bytes. The partition suites cannot see a
// change that keeps the partition but moves the bytes; these digests
// can. Each walk visits the full schedule tree of a fixed config (no
// dedup) and folds every node's plain key — and, when reducing, its
// reduced key over the node's sleep set — into one FNV-128 digest.
// A digest change means existing .rpck snapshots no longer resume.

// keyDigest walks cfg's schedule tree and digests the encoded keys. With
// reduce, the walk follows the reduced tree (slept children skipped) and
// digests both keys at every node.
func keyDigest(t *testing.T, cfg Config, reduce bool) string {
	t.Helper()
	e, err := newBengine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var red *statespace.Reduction
	if reduce {
		red = statespace.NewReduction(e, true, true)
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
			if err := e.Step(c, i); err != nil {
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

// TestStateKeyDigests pins the key bytes of the plain and reduced
// encodings, with and without an enabled fault policy.
func TestStateKeyDigests(t *testing.T) {
	sym := symmetricConfigs()
	withDepth := func(cfg Config, d int) Config {
		cfg.MaxDepth = d
		return cfg
	}
	faulty := withDepth(sym["fixed-3w"], 9)
	faulty.Faults = memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash | memsim.SetLostCAS, Vol: memsim.VolOwned}
	casFaults := withDepth(partitionConfig(signal.CASRegister()), 6)
	casFaults.Faults = memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash | memsim.SetLostCAS}
	for _, tc := range []struct {
		name   string
		cfg    Config
		reduce bool
		want   string
	}{
		{"plain/queue", partitionConfig(signal.QueueSignal()), false, "ef20de646b54c3832220f3866d5af465/2815"},
		{"plain/flag-3w", withDepth(sym["flag-3w"], 9), false, "b11c47cf76855cb6a63a3f6d75823cad/151887"},
		{"reduced/flag-3w", sym["flag-3w"], true, "35f91c2f53a097cf67726b73ccee636f/1581"},
		{"reduced/fixed-3w", sym["fixed-3w"], true, "daaeec422882e774dff48d6438d97fe8/7948"},
		{"faults/reduced/fixed-3w", faulty, true, "4d30196e55c56c673883be7c7ca42945/35356"},
		{"faults/plain/cas-register", casFaults, false, "f3be77ff083a22ccd3960b0baba8ca66/4161"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := keyDigest(t, tc.cfg, tc.reduce); got != tc.want {
				t.Errorf("key digest = %q, want %q", got, tc.want)
			}
		})
	}
}
