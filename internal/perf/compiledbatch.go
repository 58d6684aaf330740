package perf

import (
	"fmt"
	"math/rand"

	"neurocuts/internal/compiled"
	"neurocuts/internal/engine"
)

// CompiledBatchComparison is the outcome of the compiledbatch perf cell: the
// same trace classified through the compiled form's scalar per-packet lookup
// (LookupIndex) and through the grouped interleaved traversal (LookupBatch),
// on one tree backend at serving scale. The gated quantity is batch latency
// at the median: the grouped path's claim is that overlapping G packets'
// node fetches hides the per-node dependent-load latency, and that shows up
// as a lower per-batch p50 on trees deep enough for the memory stalls to
// dominate.
type CompiledBatchComparison struct {
	Family  string `json:"family"`
	Size    int    `json:"size"`
	Backend string `json:"backend"`
	// Group is the grouped path's lane width (compiled.BatchGroup).
	Group int `json:"group"`
	// Grouped records whether the adaptive dispatch engaged the interleaved
	// traversal for this forest. Shallow cache-resident forests (fw1-shaped
	// sets compile to a handful of nodes) fall back to scalar inside
	// LookupBatch; for those the gate asserts no-regression rather than a
	// win, since both paths run the same code modulo one predicate.
	Grouped bool `json:"grouped"`
	// Batches and BatchSize describe the measured workload: Batches windows
	// of BatchSize packets per pass.
	Batches   int `json:"batches"`
	BatchSize int `json:"batch_size"`
	// ZipfPackets and WorstDepthPackets are the trace composition: a skewed
	// rule-directed half and an adversarial half steered to the tree's
	// deepest leaves (the longest dependent-load chains).
	ZipfPackets       int `json:"zipf_packets"`
	WorstDepthPackets int `json:"worst_depth_packets"`
	// Per-batch latency percentiles, nanoseconds, from the best pass.
	ScalarP50Nanos float64 `json:"scalar_p50_nanos"`
	ScalarP99Nanos float64 `json:"scalar_p99_nanos"`
	BatchP50Nanos  float64 `json:"batch_p50_nanos"`
	BatchP99Nanos  float64 `json:"batch_p99_nanos"`
	// Aggregate throughput, packets per second, best pass.
	ScalarPacketsPerSec float64 `json:"scalar_packets_per_sec"`
	BatchPacketsPerSec  float64 `json:"batch_packets_per_sec"`
	// Factor is ScalarP50Nanos / BatchP50Nanos: above 1, the grouped
	// traversal beats per-packet lookups at the median.
	Factor float64 `json:"factor"`
}

// compiledBatchSink defeats dead-code elimination of the scalar loop.
var compiledBatchSink int

// MeasureCompiledBatch builds one tree backend over a generated rule set,
// compiles it, and classifies the same mixed trace — half Zipf-skewed
// rule-directed traffic, half worst-case-depth packets steered to the
// deepest leaves — through the scalar and the grouped compiled lookup,
// measuring per-batch latency (the pass with the lowest p50 of `runs` per
// path; the first pass's cold start is thereby discarded).
func MeasureCompiledBatch(family string, size int, backend string, batches, batchSize, runs int, cfg RunConfig) (CompiledBatchComparison, error) {
	cfg = cfg.WithDefaults()
	res := CompiledBatchComparison{
		Family: family, Size: size, Backend: backend,
		Group: compiled.BatchGroup, Batches: batches, BatchSize: batchSize,
	}

	// Trace: a flow-skewed half (the cache-miss traffic a serving path
	// actually batches) and a worst-depth half (every packet rides a
	// maximum-length node chain), shuffled together deterministically.
	total := batches * batchSize
	zipfN := total / 2
	set, keys, err := fixture(family, size, zipfN, true, cfg)
	if err != nil {
		return res, err
	}
	cls, err := engine.NewWithOptions(backend, set, engine.Options{Binth: cfg.Binth, Seed: cfg.Seed})
	if err != nil {
		return res, err
	}
	cp, ok := cls.(engine.CompiledProvider)
	if !ok {
		return res, fmt.Errorf("perf: compiledbatch cell needs a compiled tree backend, not %q", backend)
	}
	c := cp.Compiled()
	res.Grouped = c.BatchEligible()
	worst := c.WorstCaseDepthPackets(total-zipfN, cfg.Seed+13)
	keys = append(keys, worst...)
	res.ZipfPackets, res.WorstDepthPackets = zipfN, len(worst)
	rng := rand.New(rand.NewSource(cfg.Seed + 29))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	tm := timing{packets: len(keys), passes: runs, batches: batches, batch: batchSize}
	scalar, err := tm.run(func(_, lo, hi int) error {
		s := 0
		for _, p := range keys[lo:hi] {
			s += c.LookupIndex(p)
		}
		compiledBatchSink = s
		return nil
	})
	if err != nil {
		return res, err
	}
	out := make([]int32, batchSize)
	grouped, err := tm.run(func(_, lo, hi int) error {
		c.LookupBatch(keys[lo:hi], out[:hi-lo])
		return nil
	})
	if err != nil {
		return res, err
	}

	scalarLats, batchLats := lowest(scalar, 0.50).lats, lowest(grouped, 0.50).lats
	res.ScalarP50Nanos = percentile(scalarLats, 0.50)
	res.ScalarP99Nanos = percentile(scalarLats, 0.99)
	res.BatchP50Nanos = percentile(batchLats, 0.50)
	res.BatchP99Nanos = percentile(batchLats, 0.99)
	res.ScalarPacketsPerSec = bestPPS(scalar)
	res.BatchPacketsPerSec = bestPPS(grouped)
	if res.BatchP50Nanos > 0 {
		res.Factor = res.ScalarP50Nanos / res.BatchP50Nanos
	}
	return res, nil
}

// batchFallbackFloor is the no-regression bound applied when the adaptive
// dispatch declined the grouped traversal: LookupBatch then runs the same
// scalar loop as the baseline plus one predicate, so anything below this is
// a broken fallback, not measurement noise.
const batchFallbackFloor = 0.9

// CheckCompiledBatch asserts the grouped traversal's headline claim: when
// the adaptive dispatch engaged (r.Grouped), batch p50 must reach minFactor
// times the scalar p50 (Factor = ScalarP50 / BatchP50, so minFactor 1.0
// means "at least as fast"). When the forest fell back to scalar, the cell
// instead asserts the fallback costs nothing (batchFallbackFloor). Returns a
// violation message when the claim does not hold.
func CheckCompiledBatch(r CompiledBatchComparison, minFactor float64) (violation string) {
	if minFactor <= 0 {
		return ""
	}
	if !r.Grouped {
		if r.Factor < batchFallbackFloor {
			return fmt.Sprintf(
				"%s_%d_%s batch=%d: scalar-fallback LookupBatch p50 %.0fns vs scalar %.0fns is %.2fx (want >= %.2fx — the fallback should be free)",
				r.Family, r.Size, r.Backend, r.BatchSize,
				r.BatchP50Nanos, r.ScalarP50Nanos, r.Factor, batchFallbackFloor)
		}
		return ""
	}
	if r.Factor < minFactor {
		return fmt.Sprintf(
			"%s_%d_%s batch=%d: grouped batch p50 %.0fns vs scalar %.0fns is only %.2fx (want >= %.2fx)",
			r.Family, r.Size, r.Backend, r.BatchSize,
			r.BatchP50Nanos, r.ScalarP50Nanos, r.Factor, minFactor)
	}
	return ""
}
