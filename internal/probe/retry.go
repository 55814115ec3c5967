package probe

import "sisyphus/internal/netsim/topo"

// FaultHook is the probe-side interface to a measurement-fault injector
// (implemented by internal/faults). The prober consults it once per probe
// attempt and once per completed record. A nil hook — and equally a hook
// whose every fault rate is zero — leaves the prober's output bit-identical
// to a fault-free run: the hook owns its own pre-split RNG streams, so
// consulting it never advances the prober's measurement-noise stream.
type FaultHook interface {
	// AttemptFails reports whether the probe attempt with the given
	// per-prober sequence number times out (an injected drop, or the
	// vantage point being inside an outage window).
	AttemptFails(src topo.PoPID, hour float64, seq, attempt int) bool
	// MutateMeasurement applies record-level faults (traceroute
	// truncation, timestamp skew) to a completed measurement.
	MutateMeasurement(m *Measurement, seq int)
}

// RetryPolicy bounds how a prober reacts to failed attempts: at most
// MaxAttempts tries per probe. Retries are virtual — the simulation clock
// does not advance between attempts — so the prober reads only MaxAttempts.
// The backoff fields describe the deterministic exponential schedule a
// wall-clock prober would wait between attempts; they stay part of the
// policy because campaign artifact keys hash the whole struct.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per probe (default 1:
	// no retry — a single failed attempt yields a Failed record).
	MaxAttempts int
	// BaseBackoffMs is the wait before the second attempt.
	BaseBackoffMs float64
	// Multiplier grows the wait per additional attempt.
	Multiplier float64
	// MaxBackoffMs caps any single wait.
	MaxBackoffMs float64
}

// attempt allocates the next probe sequence number and runs the bounded
// retry loop against the fault hook. It reports the sequence number, how
// many attempts were made, and whether every attempt failed.
func (p *Prober) attempt(src topo.PoPID) (seq, attempts int, failed bool) {
	p.probes++
	seq = p.probes
	if p.Hook == nil {
		return seq, 1, false
	}
	maxAttempts := max(p.Retry.MaxAttempts, 1)
	for a := 1; a <= maxAttempts; a++ {
		if !p.Hook.AttemptFails(src, p.Engine.Hour(), seq, a) {
			return seq, a, false
		}
	}
	return seq, maxAttempts, true
}

// mutate lets the fault hook post-process a completed measurement.
func (p *Prober) mutate(m *Measurement, seq int) {
	if p.Hook != nil {
		p.Hook.MutateMeasurement(m, seq)
	}
}

// failedRecord builds the explicit marker for a probe whose every attempt
// timed out. The record keeps its identity fields (who probed whom, when,
// why) so a dead vantage point's schedule shows up as tagged gaps rather
// than silently missing rows; performance fields stay zero and Failed is
// set, and every aggregation must filter on it.
func (p *Prober) failedRecord(src, dst topo.PoPID, intent Intent, trigger string, family, attempts int) *Measurement {
	t := p.Engine.Topo
	sp, dp := t.PoP(src), t.PoP(dst)
	p.nextID++
	return &Measurement{
		ID: p.nextID, Hour: p.Engine.Hour(), Intent: intent, Trigger: trigger,
		SrcASN: sp.AS, SrcCity: sp.City, DstASN: dp.AS, DstCity: dp.City,
		Family: family, Failed: true, Attempts: attempts,
	}
}
