package checkpoint

import "time"

// writeFactor is how many times the previous snapshot write's duration
// the units committed since then must have run before the next write is
// due. Every write rewrites the whole table, so a per-unit cadence makes
// I/O grow with the table while units stay the same size; pacing by the
// measured write time instead caps snapshot I/O near 1/(writeFactor+1)
// of a run — about a tenth — at any table size. The price is the work a
// kill -9 can lose: up to about writeFactor write durations, instead of
// at most one unit.
const writeFactor = 10

// Committer paces a durable run's snapshot writes. The run stages each
// committed unit (Begin, then Commit once the unit has finished) and
// asks Due after every commit; Write persists the staged units and times
// itself, export through rename, so the next Due can weigh the staged
// work against the last write. Besides due writes, a run Flushes when
// StopAfter is reached, on an interrupt seen between units, and at the
// end. A Committer is not safe for concurrent use.
type Committer struct {
	now    func() time.Time
	cost   time.Duration // how long the last write took; zero before the first
	work   time.Duration // run time of the units staged since
	staged int           // units committed since the last write
}

// NewCommitter returns a committer that reads time from now (time.Now
// when nil). Before its first write every commit is due.
func NewCommitter(now func() time.Time) *Committer {
	if now == nil {
		now = time.Now
	}
	return &Committer{now: now}
}

// Begin returns the clock reading a unit starts at.
func (c *Committer) Begin() time.Time { return c.now() }

// Commit stages one unit that began at start and returns how long it
// ran.
func (c *Committer) Commit(start time.Time) time.Duration {
	d := c.now().Sub(start)
	c.work += d
	c.staged++
	return d
}

// Due reports whether the staged units have run at least writeFactor
// times as long as the last write took.
func (c *Committer) Due() bool {
	return c.staged > 0 && c.work >= writeFactor*c.cost
}

// Flush writes like Write when any unit is staged, and does nothing
// otherwise.
func (c *Committer) Flush(write func() error) error {
	if c.staged == 0 {
		return nil
	}
	return c.Write(write)
}

// Write runs write, which must persist every staged unit, and times it.
// On success the staged units count as written and the measured time
// prices the next write; on failure nothing changes.
func (c *Committer) Write(write func() error) error {
	start := c.now()
	if err := write(); err != nil {
		return err
	}
	c.cost = c.now().Sub(start)
	c.work, c.staged = 0, 0
	return nil
}
