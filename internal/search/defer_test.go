package search

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
)

// TestDeferredChildrenFold forces the deferred-child path without relying
// on a timing race. Every root child but the last is claimed up front, as
// a second worker's prefetch would claim it, so the root's edge visits
// find those entries incomplete and defer them. Each entry is published
// with its exact answer (from ComputeUnit) only once the hunter is parked
// on it, after its sibling loop. The root must still come out with the
// single-worker cost and lexicographically least witness: the deferred
// children fold after the last child, so a wrong tie-break shows.
func TestDeferredChildrenFold(t *testing.T) {
	queue := func(waiters, depth int, reduce bool) Config {
		scripts := map[memsim.PID][]memsim.CallKind{
			memsim.PID(waiters): {memsim.CallSignal},
		}
		for p := 0; p < waiters; p++ {
			scripts[memsim.PID(p)] = []memsim.CallKind{memsim.CallPoll, memsim.CallPoll}
		}
		return Config{
			Factory:  signal.QueueSignal().New,
			N:        waiters + 1,
			Scripts:  scripts,
			MaxDepth: depth,
			Model:    model.ModelCC,
			Reduce:   reduce,
			Workers:  1,
		}
	}
	for name, cfg := range map[string]Config{
		"queue-3w-d12":        queue(3, 12, false),
		"queue-3w-d12-reduce": queue(3, 12, true),
	} {
		t.Run(name, func(t *testing.T) {
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := normalize(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := &bnb{cfg: cfg, workers: 1, table: newMemoTable(), abort: make(chan struct{})}
			w, err := newHunter(s, 0)
			if err != nil {
				t.Fatal(err)
			}

			// Claim every root child's entry but the last child's; under
			// reduction symmetric children may share one canonical entry.
			type held struct {
				key   memoKey
				entry *memoEntry
				cost  int
				tail  []int
			}
			var claims []held
			children := len(w.e.SettleAt(0))
			for i := 0; i < children-1; i++ {
				u, err := ComputeUnit(cfg, []int{i})
				if err != nil {
					t.Fatal(err)
				}
				key := memoKey{state: u.Entry.State, budget: u.Entry.Budget}
				if e, won, _ := s.table.claim(key, false); won {
					claims = append(claims, held{key, e, u.Entry.Cost, u.Entry.Tail})
				}
			}
			if len(claims) == 0 {
				t.Fatal("no root child entry was claimed")
			}

			// The stand-in second worker: publish each held entry once the
			// hunter waits on it (wait materializes done under the stripe
			// lock), in the order the hunter folds them.
			stop := make(chan struct{})
			published := make(chan struct{})
			go func() {
				defer close(published)
				for _, c := range claims {
					st := &s.table.stripes[stripeOf(c.key)]
					for {
						st.mu.Lock()
						parked := c.entry.done != nil
						st.mu.Unlock()
						if parked {
							break
						}
						select {
						case <-stop:
							return
						case <-time.After(100 * time.Microsecond):
						}
					}
					s.table.publish(c.key, c.entry, c.cost, c.tail)
				}
			}()
			err = w.runTask(task{})
			close(stop)
			<-published
			if err != nil {
				t.Fatal(err)
			}
			witness := s.rootTail
			if w.red != nil {
				if witness, err = w.reconstructWitness(s.rootCost); err != nil {
					t.Fatal(err)
				}
			}
			if s.rootCost != want.WorstCost || !reflect.DeepEqual(witness, want.Witness) {
				t.Fatalf("deferred fold diverged: cost %d witness %v, want cost %d witness %v",
					s.rootCost, witness, want.WorstCost, want.Witness)
			}
			if w.deferrals < children-1 || w.waits != len(claims) {
				t.Fatalf("deferrals %d, waits %d; want at least %d deferrals and %d waits",
					w.deferrals, w.waits, children-1, len(claims))
			}
		})
	}
}
