package perf

import (
	"fmt"
	"runtime"

	"neurocuts/internal/dataplane"
	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// DataplaneComparison is the outcome of the dataplane perf cell: the same
// skewed batched lookup workload, submitted concurrently, served once by
// the worker-pool engine (shared sharded flow cache, WaitGroup barrier per
// batch) and once by the run-to-completion dataplane (flow-hash demux,
// per-core loops, lock-free per-core caches, completion vectors). The
// gated quantity is batch latency at the tail: under concurrent submitters
// the pool path's shared structures are where contention shows up first,
// and p99 is where it lands.
type DataplaneComparison struct {
	Family  string `json:"family"`
	Size    int    `json:"size"`
	Backend string `json:"backend"`
	// Cores is both the pool engine's shard count and the dataplane's loop
	// count, so the two paths get the same parallelism budget.
	Cores int `json:"cores"`
	// Submitters is the number of goroutines concurrently submitting
	// batches; Batches is the measured batch count per submitter per pass.
	Submitters int `json:"submitters"`
	Batches    int `json:"batches"`
	BatchSize  int `json:"batch_size"`
	// CacheEntries is the flow-cache budget given to each path (sharded
	// cache on the pool path, split across per-core caches on the
	// dataplane path).
	CacheEntries int `json:"cache_entries"`
	// Batch-latency percentiles, nanoseconds, from the pass with the
	// lowest p99.
	PoolP50Nanos      float64 `json:"pool_p50_nanos"`
	PoolP99Nanos      float64 `json:"pool_p99_nanos"`
	DataplaneP50Nanos float64 `json:"dataplane_p50_nanos"`
	DataplaneP99Nanos float64 `json:"dataplane_p99_nanos"`
	// Aggregate throughput, packets per second, best pass.
	PoolPacketsPerSec      float64 `json:"pool_packets_per_sec"`
	DataplanePacketsPerSec float64 `json:"dataplane_packets_per_sec"`
	// Factor is PoolP99Nanos / DataplaneP99Nanos: above 1, the dataplane's
	// tail is shorter than the worker pool's.
	Factor float64 `json:"factor"`
}

// MeasureDataplane builds the backend twice over one generated rule set —
// worker-pool serving and dataplane serving — and pushes the same
// flow-skewed trace through both from `submitters` concurrent goroutines,
// measuring per-batch latency (the pass with the lowest p99 of `runs`).
// Both paths get identical parallelism (cores; 0 = GOMAXPROCS) and
// flow-cache budget; only the serving architecture differs.
func MeasureDataplane(family string, size int, backend string, cores, submitters, batches, batchSize, cacheEntries, runs int, cfg RunConfig) (DataplaneComparison, error) {
	cfg = cfg.WithDefaults()
	if cores <= 0 {
		// Machine-matched: one loop per processor is the run-to-completion
		// deployment shape (more loops than processors just adds handoffs).
		cores = runtime.GOMAXPROCS(0)
	}
	res := DataplaneComparison{
		Family: family, Size: size, Backend: backend,
		Cores: cores, Submitters: submitters, Batches: batches,
		BatchSize: batchSize, CacheEntries: cacheEntries,
	}

	set, keys, err := fixture(family, size, submitters*batches*batchSize, false, cfg)
	if err != nil {
		return res, err
	}

	poolEng, err := engine.NewEngine(backend, set, engine.Options{
		Binth: cfg.Binth, Seed: cfg.Seed,
		Shards: cores, FlowCacheEntries: cacheEntries,
	})
	if err != nil {
		return res, err
	}
	defer poolEng.Close()

	dpEng, err := engine.NewEngine(backend, set, engine.Options{
		Binth: cfg.Binth, Seed: cfg.Seed,
		Shards: cores, FlowCacheEntries: 0,
	})
	if err != nil {
		return res, err
	}
	defer dpEng.Close()
	dp, err := dataplane.Attach(dpEng, dataplane.Config{Cores: cores, CacheEntries: cacheEntries})
	if err != nil {
		return res, err
	}

	tm := timing{packets: len(keys), passes: runs, batches: batches, batch: batchSize, submitters: submitters}
	outs := make([][]engine.Result, submitters)
	for s := range outs {
		outs[s] = make([]engine.Result, batchSize)
	}
	measure := func(classify func([]rule.Packet, []engine.Result)) ([]pass, error) {
		return tm.run(func(s, lo, hi int) error {
			classify(keys[lo:hi], outs[s][:hi-lo])
			return nil
		})
	}
	pool, err := measure(poolEng.ClassifyBatch)
	if err != nil {
		return res, err
	}
	dpPasses, err := measure(dp.ClassifyBatch)
	if err != nil {
		return res, err
	}

	poolLats, dpLats := lowest(pool, 0.99).lats, lowest(dpPasses, 0.99).lats
	res.PoolP50Nanos = percentile(poolLats, 0.50)
	res.PoolP99Nanos = percentile(poolLats, 0.99)
	res.DataplaneP50Nanos = percentile(dpLats, 0.50)
	res.DataplaneP99Nanos = percentile(dpLats, 0.99)
	res.PoolPacketsPerSec = bestPPS(pool)
	res.DataplanePacketsPerSec = bestPPS(dpPasses)
	if res.DataplaneP99Nanos > 0 {
		res.Factor = res.PoolP99Nanos / res.DataplaneP99Nanos
	}
	return res, nil
}

// CheckDataplane asserts the dataplane's headline claim: under concurrent
// submitters, batch p99 through the run-to-completion path must be no
// worse than minFactor times better than the worker pool's (Factor =
// PoolP99 / DataplaneP99, so minFactor 1.0 means "at least as good"). It
// returns a violation message when the claim does not hold.
func CheckDataplane(r DataplaneComparison, minFactor float64) (violation string) {
	if minFactor > 0 && r.Factor < minFactor {
		return fmt.Sprintf(
			"%s_%d_%s cores=%d submitters=%d: dataplane batch p99 %.0fns vs pool %.0fns is only %.2fx (want >= %.2fx)",
			r.Family, r.Size, r.Backend, r.Cores, r.Submitters,
			r.DataplaneP99Nanos, r.PoolP99Nanos, r.Factor, minFactor)
	}
	return ""
}
