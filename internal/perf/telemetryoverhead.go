package perf

import (
	"fmt"

	"neurocuts/internal/engine"
	"neurocuts/internal/telemetry"
)

// TelemetryOverhead is the outcome of the checktelemetry perf cell: the same
// Zipf-skewed batch workload classified through two otherwise-identical
// engines, one with telemetry off and one with the full online-telemetry
// stack armed at its most expensive setting (latency histograms recording
// every span plus the flight recorder capturing every lookup at threshold 0).
// The gated quantities are the relative batch-p50 cost of instrumentation and
// the steady-state allocation delta, which must be zero: telemetry that
// allocates on the hot path would defeat the zero-alloc serving contract.
type TelemetryOverhead struct {
	Family  string `json:"family"`
	Size    int    `json:"size"`
	Backend string `json:"backend"`
	// Batches and BatchSize describe the measured workload: Batches windows
	// of BatchSize packets per pass.
	Batches   int `json:"batches"`
	BatchSize int `json:"batch_size"`
	// Per-batch latency percentiles, nanoseconds, from the best pass of each
	// configuration.
	OffP50Nanos float64 `json:"off_p50_nanos"`
	OffP99Nanos float64 `json:"off_p99_nanos"`
	OnP50Nanos  float64 `json:"on_p50_nanos"`
	OnP99Nanos  float64 `json:"on_p99_nanos"`
	// Steady-state mallocs per batch (minimum across measured passes, so a
	// one-off warmup allocation does not count against the gate).
	OffAllocsPerBatch float64 `json:"off_allocs_per_batch"`
	OnAllocsPerBatch  float64 `json:"on_allocs_per_batch"`
	// OverheadPct is (OnP50 - OffP50) / OffP50 * 100: the median latency tax
	// of full instrumentation. Negative values are measurement noise.
	OverheadPct float64 `json:"overhead_pct"`
	// AllocsDelta is OnAllocsPerBatch - OffAllocsPerBatch.
	AllocsDelta float64 `json:"allocs_delta"`
	// HistogramSamples and SlowCaptured confirm the instrumented run really
	// recorded: a zero here means the cell measured an unarmed engine and the
	// overhead number is meaningless.
	HistogramSamples uint64 `json:"histogram_samples"`
	SlowCaptured     uint64 `json:"slow_captured"`
}

// MeasureTelemetryOverhead builds the same backend twice over one generated
// rule set — telemetry off and telemetry fully armed (slow threshold 0, so
// the flight recorder fires on every lookup) — and drives the identical
// Zipf-skewed trace through ClassifyBatch on both. Per configuration, one
// unmeasured warm-up pass (scratch freelists, flow state, branch
// predictors) precedes `runs` measured passes; the latencies come from the
// pass with the lowest p50, the mallocs per batch are the lowest of any
// pass — the steady-state rate, immune to one-off GC-metadata noise.
func MeasureTelemetryOverhead(family string, size int, backend string, batches, batchSize, runs int, cfg RunConfig) (TelemetryOverhead, error) {
	cfg = cfg.WithDefaults()
	res := TelemetryOverhead{
		Family: family, Size: size, Backend: backend,
		Batches: batches, BatchSize: batchSize,
	}

	set, keys, err := fixture(family, size, batches*batchSize, true, cfg)
	if err != nil {
		return res, err
	}

	// Shards: 1 keeps both engines on the inline batch path, so the measured
	// spans are pure lookup work with (at most) one histogram record and one
	// recorder offer per batch element — no worker handoff noise.
	base := engine.Options{Shards: 1, Binth: cfg.Binth}

	off, err := engine.NewEngine(backend, set, base)
	if err != nil {
		return res, err
	}
	defer off.Close()

	tel := telemetry.New(telemetry.Config{})
	tel.SetSlowThreshold(0)
	armed := base
	armed.Telemetry = tel
	on, err := engine.NewEngine(backend, set, armed)
	if err != nil {
		return res, err
	}
	defer on.Close()

	tm := timing{packets: len(keys), warmup: true, passes: runs, batches: batches, batch: batchSize}
	out := make([]engine.Result, batchSize)
	measure := func(eng *engine.Engine) (lats []int64, allocsPerBatch float64, err error) {
		ps, err := tm.run(func(_, lo, hi int) error {
			eng.ClassifyBatch(keys[lo:hi], out[:hi-lo])
			return nil
		})
		for i, p := range ps {
			if perBatch := float64(p.mallocs) / float64(batches); i == 0 || perBatch < allocsPerBatch {
				allocsPerBatch = perBatch
			}
		}
		return lowest(ps, 0.50).lats, allocsPerBatch, err
	}
	offLats, offAllocs, err := measure(off)
	if err != nil {
		return res, err
	}
	onLats, onAllocs, err := measure(on)
	if err != nil {
		return res, err
	}

	res.OffP50Nanos = percentile(offLats, 0.50)
	res.OffP99Nanos = percentile(offLats, 0.99)
	res.OnP50Nanos = percentile(onLats, 0.50)
	res.OnP99Nanos = percentile(onLats, 0.99)
	res.OffAllocsPerBatch = offAllocs
	res.OnAllocsPerBatch = onAllocs
	if res.OffP50Nanos > 0 {
		res.OverheadPct = (res.OnP50Nanos - res.OffP50Nanos) / res.OffP50Nanos * 100
	}
	res.AllocsDelta = onAllocs - offAllocs
	res.HistogramSamples = tel.LookupBatch.Snapshot().Count()
	res.SlowCaptured = tel.Slow.Captured()
	return res, nil
}

// CheckTelemetry asserts the telemetry cost contract: full instrumentation
// (every span recorded, flight recorder at threshold 0) may tax batch p50 by
// at most maxOverheadPct percent and must not allocate on the hot path (zero
// steady-state mallocs-per-batch delta). It also rejects a run whose armed
// engine recorded nothing — that means the cell silently measured two
// unarmed engines. Returns a violation message when the contract is broken.
func CheckTelemetry(r TelemetryOverhead, maxOverheadPct float64) (violation string) {
	if r.HistogramSamples == 0 || r.SlowCaptured == 0 {
		return fmt.Sprintf(
			"%s_%d_%s: armed engine recorded nothing (histogram samples %d, slow captures %d) — the overhead measurement is void",
			r.Family, r.Size, r.Backend, r.HistogramSamples, r.SlowCaptured)
	}
	if r.AllocsDelta > 0 {
		return fmt.Sprintf(
			"%s_%d_%s batch=%d: telemetry allocates on the hot path (%.2f mallocs/batch armed vs %.2f off, delta %.2f, want 0)",
			r.Family, r.Size, r.Backend, r.BatchSize,
			r.OnAllocsPerBatch, r.OffAllocsPerBatch, r.AllocsDelta)
	}
	if maxOverheadPct > 0 && r.OverheadPct > maxOverheadPct {
		return fmt.Sprintf(
			"%s_%d_%s batch=%d: telemetry batch p50 %.0fns vs %.0fns off is +%.1f%% (want <= %.1f%%)",
			r.Family, r.Size, r.Backend, r.BatchSize,
			r.OnP50Nanos, r.OffP50Nanos, r.OverheadPct, maxOverheadPct)
	}
	return ""
}
