package checkpoint

import (
	"errors"
	"testing"
	"time"
)

// stepClock advances one millisecond per reading, so a unit (Begin,
// Commit) and a write each take exactly one step.
func stepClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// TestCommitterCadence: the first commit is due (no write has been
// priced yet); after a write costing one step, the next write is due
// only once the staged units have run writeFactor steps.
func TestCommitterCadence(t *testing.T) {
	c := NewCommitter(stepClock())
	if c.Due() {
		t.Fatal("due with nothing staged")
	}
	c.Commit(c.Begin())
	if !c.Due() {
		t.Fatal("first commit not due")
	}
	if err := c.Write(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= writeFactor; i++ {
		if d := c.Commit(c.Begin()); d != time.Millisecond {
			t.Fatalf("unit ran %v, want 1ms", d)
		}
		if c.staged != i {
			t.Fatalf("staged %d, want %d", c.staged, i)
		}
		if due := c.Due(); due != (i == writeFactor) {
			t.Fatalf("after %d staged units: due %v", i, due)
		}
	}
}

// TestCommitterFailedWriteKeepsStaged: a failed write persists nothing,
// so the staged units stay staged and the write stays due.
func TestCommitterFailedWriteKeepsStaged(t *testing.T) {
	c := NewCommitter(stepClock())
	c.Commit(c.Begin())
	c.Commit(c.Begin())
	boom := errors.New("disk full")
	if err := c.Write(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("write error %v, want %v", err, boom)
	}
	if c.staged != 2 || !c.Due() {
		t.Fatalf("after failed write: staged %d, due %v", c.staged, c.Due())
	}
}

// TestBodySizeExact: the pre-sized buffer is exactly the encoded body,
// for a snapshot with units, done indices, tails and telemetry.
func TestBodySizeExact(t *testing.T) {
	s := &Snapshot{
		Kind:        KindSearch,
		Fingerprint: "search|queue|n=5",
		ShardDepth:  3,
		Units:       [][]int{{0, 1, 2}, {}, {4}},
		Done:        []uint32{2, 0},
		Entries: []Entry{
			{State: [16]byte{1}, Budget: 3, Cost: 2, Tail: []int{0, 1}},
			{State: [16]byte{2}, Budget: 1, Adopted: true},
		},
		Telemetry: []CounterSample{{Name: "repro_engine_nodes_total", Value: 9}},
	}
	for _, snap := range []*Snapshot{{}, s} {
		body, err := encodeBody(snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := bodySize(snap); got != len(body) {
			t.Fatalf("bodySize %d, encoded %d bytes", got, len(body))
		}
	}
}
