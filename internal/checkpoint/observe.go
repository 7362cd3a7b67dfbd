package checkpoint

import (
	"os"
	"time"

	"repro/internal/telemetry"
)

// Checkpoint write instrumentation. The format layer (checkpoint.go)
// stays telemetry-free; callers that hold a registry wrap Write through
// a Metrics bundle instead. Everything here is nil-safe: a bundle built
// from a nil registry carries nil handles, and every handle method
// no-ops on nil.

// Metrics bundles the checkpoint telemetry families.
type Metrics struct {
	// Writes counts committed snapshot writes
	// (repro_checkpoint_writes_total).
	Writes *telemetry.Counter
	// Bytes accumulates committed snapshot sizes
	// (repro_checkpoint_bytes_total).
	Bytes *telemetry.Counter
	// WriteNs is the write latency distribution, encode through rename
	// (repro_checkpoint_write_ns).
	WriteNs *telemetry.Histogram
	// LastCommit holds the wall-clock nanosecond timestamp of the last
	// committed write (repro_checkpoint_last_commit_unixnano); scrapers
	// derive checkpoint age from it.
	LastCommit *telemetry.Gauge
}

// NewMetrics registers the checkpoint families on reg (at zero, so they
// appear on the first scrape even before a write commits).
func NewMetrics(reg *telemetry.Registry) Metrics {
	return Metrics{
		Writes: reg.Counter("repro_checkpoint_writes_total"),
		Bytes:  reg.Counter("repro_checkpoint_bytes_total"),
		WriteNs: reg.Histogram("repro_checkpoint_write_ns",
			1e6, 4e6, 16e6, 64e6, 256e6, 1e9, 4e9),
		LastCommit: reg.Gauge("repro_checkpoint_last_commit_unixnano"),
	}
}

// Write persists s to path like the package-level Write, and records
// the outcome: one write, the committed byte size, the latency and the
// commit timestamp. Failed writes record nothing.
func (m Metrics) Write(path string, s *Snapshot) error {
	start := time.Now()
	if err := Write(path, s); err != nil {
		return err
	}
	m.Writes.Inc(0)
	if fi, err := os.Stat(path); err == nil {
		m.Bytes.Add(0, fi.Size())
	}
	m.WriteNs.Observe(0, time.Since(start).Nanoseconds())
	m.LastCommit.Set(start.UnixNano())
	return nil
}

// SampleCounters converts a registry's cumulative counters into the
// snapshot's persisted telemetry block. Nil registry yields nil.
func SampleCounters(reg *telemetry.Registry) []CounterSample {
	vals := reg.CounterValues()
	if len(vals) == 0 {
		return nil
	}
	out := make([]CounterSample, len(vals))
	for i, v := range vals {
		out[i] = CounterSample{Name: v.Name, Value: v.Value}
	}
	return out
}
