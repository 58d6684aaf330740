package perf

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// Run measures every cell of the grid and returns the assembled report.
// progress, when non-nil, receives one line per completed cell (cmd/perflab
// passes os.Stderr; tests pass nil).
func Run(grid Grid, cfg RunConfig, progress io.Writer) (Report, error) {
	cfg = cfg.WithDefaults()
	rep := Report{SchemaVersion: SchemaVersion, Tool: "perflab", Grid: grid, Config: cfg}
	cells := grid.Cells()
	if len(cells) == 0 {
		return rep, fmt.Errorf("perf: empty grid")
	}
	for i, cell := range cells {
		start := time.Now()
		res, err := MeasureCell(cell, cfg)
		if err != nil {
			return rep, fmt.Errorf("perf: %s: %w", cell.Name(), err)
		}
		rep.Cells = append(rep.Cells, res)
		if progress != nil {
			fmt.Fprintf(progress, "[%d/%d] %-40s p50=%.0fns p99=%.0fns %.2fMpps allocs/op=%.2f (%s)\n",
				i+1, len(cells), cell.Name(), res.Metrics.P50Nanos, res.Metrics.P99Nanos,
				res.Metrics.ThroughputPPS/1e6, res.Metrics.AllocsPerOp,
				time.Since(start).Round(time.Millisecond))
		}
	}
	rep.SortCells()
	return rep, nil
}

// MeasureCell builds the cell's classifier and measures it under the cell's
// traffic and churn model. Exported so internal/bench can render its tables
// from the exact measurements the JSON artifacts carry.
func MeasureCell(cell Cell, cfg RunConfig) (CellResult, error) {
	cfg = cfg.WithDefaults()
	fam, err := classbench.FamilyByName(cell.Family)
	if err != nil {
		return CellResult{}, err
	}
	set := classbench.Generate(fam, cell.Size, cfg.Seed)

	opts := engine.Options{Shards: cfg.Shards, Binth: cfg.Binth, FlowCacheEntries: cfg.FlowCacheEntries,
		// Update-heavy cells measure the delta-overlay write path; the other
		// churn mode keeps measuring rebuild-per-update for comparison.
		OnlineUpdates: cell.Churn == ChurnHeavy}
	buildStart := time.Now()
	eng, err := engine.NewEngine(cell.Backend, set, opts)
	if err != nil {
		return CellResult{}, err
	}
	buildNanos := time.Since(buildStart).Nanoseconds()
	defer eng.Close()
	if cfg.OnEngine != nil {
		// Stats reads are atomics, so the observer may keep scraping this
		// engine even after the cell tears it down.
		cfg.OnEngine(cell.Name(), eng)
	}

	keys := cellTrace(cell, set, cfg)
	if len(keys) == 0 {
		return CellResult{}, fmt.Errorf("empty trace")
	}

	var m CellMetrics
	m.BuildNanos = buildNanos
	em := eng.Metrics()
	m.MemoryBytes = em.MemoryBytes
	m.LookupCost = em.LookupCost
	m.Entries = em.Entries
	m.Rules = em.Rules

	// Warmup: touch the trace once so caches, pools and lazily started
	// workers are in steady state before anything is measured.
	warm := cfg.Warmup
	if warm > len(keys) {
		warm = len(keys)
	}
	for _, p := range keys[:warm] {
		eng.Classify(p)
	}

	// Allocations per op, measured on the read-only path before the churn
	// writer starts (a concurrent rebuild would pollute the global
	// allocation counters with its own work).
	m.AllocsPerOp = measureAllocs(eng, keys, cfg.Ops)

	// Churn: a background writer inserts a clone of the hottest rule and
	// deletes it again, over and over, through the engine's atomic snapshot
	// swap (a rebuild per update for "churn" cells, the delta overlay for
	// "updateheavy" cells). Lookups below run against whatever snapshot is
	// current.
	var stopChurn func() churnResult
	if cell.Churn == ChurnUpdates || cell.Churn == ChurnHeavy {
		pace := 200 * time.Microsecond
		if cell.Churn == ChurnHeavy {
			// The overlay write path is cheap; pace just enough that readers
			// still get scheduled.
			pace = 20 * time.Microsecond
		}
		stopChurn = startChurn(eng, set, pace)
	}

	// Timing measurements, best of cfg.Runs passes: per-percentile minimum
	// latency and maximum throughput. One-sided noise (scheduler
	// preemption, churn-rebuild interference) inflates individual passes; a
	// real regression slows all of them, so the best-of survives the gate's
	// thresholds while noise does not.
	durations := make([]int64, cfg.Ops)
	for pass := 0; pass < cfg.Runs; pass++ {
		for i := 0; i < cfg.Ops; i++ {
			p := keys[i%len(keys)]
			t0 := time.Now()
			eng.Classify(p)
			durations[i] = time.Since(t0).Nanoseconds()
		}
		sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
		p50 := percentile(durations, 0.50)
		p99 := percentile(durations, 0.99)
		if pass == 0 || p50 < m.P50Nanos {
			m.P50Nanos = p50
		}
		if pass == 0 || p99 < m.P99Nanos {
			m.P99Nanos = p99
		}
	}

	// Batched throughput over pooled buffers.
	batch := cfg.BatchSize
	if batch > len(keys) {
		batch = len(keys)
	}
	out := engine.GetResultBuf(batch)
	for pass := 0; pass < cfg.Runs; pass++ {
		done := 0
		tpStart := time.Now()
		for done < cfg.Ops {
			lo := done % (len(keys) - batch + 1)
			eng.ClassifyBatch(keys[lo:lo+batch], out)
			done += batch
		}
		elapsed := time.Since(tpStart).Seconds()
		if elapsed > 0 {
			if pps := float64(done) / elapsed; pps > m.ThroughputPPS {
				m.ThroughputPPS = pps
			}
		}
	}
	engine.PutResultBuf(out)

	if stopChurn != nil {
		cr := stopChurn()
		m.Updates = cr.updates
		m.UpdateP50Nanos = cr.p50
		m.UpdateP99Nanos = cr.p99
	}
	if hits, misses := eng.CacheStats(); hits+misses > 0 {
		m.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return CellResult{Cell: cell, Metrics: m}, nil
}

// cellTrace generates the cell's packet trace according to its skew axis.
func cellTrace(cell Cell, set *rule.Set, cfg RunConfig) []rule.Packet {
	var entries []packet.TraceEntry
	switch cell.Skew {
	case SkewZipf:
		entries = classbench.ZipfTrace(set, cfg.Packets, cfg.Flows, cfg.ZipfSkew, cfg.Seed+101)
	default:
		entries = classbench.UniformTrace(set, cfg.Packets, cfg.Seed+101)
	}
	keys := make([]rule.Packet, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// measureAllocs reports heap allocations per single-packet lookup using the
// runtime's global allocation counter. The counter is process-wide, so a
// stray background allocation (GC bookkeeping, a late-initialised pool) can
// bleed into one pass; taking the minimum of several passes and squashing
// sub-0.01 residue keeps the metric exact — a real hot-path regression adds
// at least one alloc per op, three orders of magnitude above the noise
// floor.
func measureAllocs(eng *engine.Engine, keys []rule.Packet, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	const passes = 3
	best := -1.0
	var before, after runtime.MemStats
	for p := 0; p < passes; p++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			eng.Classify(keys[i%len(keys)])
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / float64(ops)
		if best < 0 || got < best {
			best = got
		}
	}
	if best < 0.01 {
		return 0
	}
	return best
}

// churnResult is what the background writer reports when stopped: how many
// updates it applied and the per-update latency percentiles (one sample per
// Insert or Delete call).
type churnResult struct {
	updates  int
	p50, p99 float64
}

// maxChurnSamples bounds the writer's latency sample buffer.
const maxChurnSamples = 1 << 16

// startChurn launches the background writer and returns a function that
// stops it and reports the applied updates and their latency percentiles.
func startChurn(eng *engine.Engine, set *rule.Set, pace time.Duration) func() churnResult {
	var stop atomic.Bool
	doneCh := make(chan churnResult, 1)
	started := make(chan struct{})
	template := set.Rule(0)
	go func() {
		updates := 0
		// Decimating sampler: when the buffer fills, keep every other
		// retained sample and double the stride, so the final set covers
		// the whole run uniformly. Keeping only the first N would bias the
		// gated percentiles toward the warm-up window and hide late-run
		// latency regressions.
		samples := make([]int64, 0, maxChurnSamples)
		stride, tick := 1, 0
		record := func(d time.Duration) {
			tick++
			if tick%stride != 0 {
				return
			}
			if len(samples) == maxChurnSamples {
				for i := 0; i < maxChurnSamples/2; i++ {
					samples[i] = samples[2*i]
				}
				samples = samples[:maxChurnSamples/2]
				stride *= 2
			}
			samples = append(samples, d.Nanoseconds())
		}
		for !stop.Load() {
			t0 := time.Now()
			res, err := eng.Insert(0, template)
			record(time.Since(t0))
			if err != nil {
				break
			}
			updates++
			t0 = time.Now()
			_, err = eng.Delete(res.ID)
			record(time.Since(t0))
			if err != nil {
				break
			}
			updates++
			if updates == 2 {
				// Guarantee the measured lookups really overlap at least
				// one snapshot swap, even when the measurement loop is
				// shorter than the scheduler's first slice for this
				// goroutine.
				close(started)
			}
			// Pace the writer: back-to-back rebuilds would turn the cell
			// into a rebuild benchmark and make tail latency depend almost
			// entirely on swap timing luck.
			time.Sleep(pace)
		}
		if updates < 2 {
			close(started)
		}
		res := churnResult{updates: updates}
		if len(samples) > 0 {
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			res.p50 = percentile(samples, 0.50)
			res.p99 = percentile(samples, 0.99)
		}
		doneCh <- res
	}()
	<-started
	return func() churnResult {
		stop.Store(true)
		return <-doneCh
	}
}

// percentile returns the q-quantile (0..1) of sorted nanosecond samples.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx])
}
