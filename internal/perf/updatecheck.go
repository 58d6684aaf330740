package perf

import (
	"fmt"
	"sort"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
)

// MaxOverlayLookupRatio bounds what pending updates may cost lookups: with
// engine.DefaultCompactThreshold-1 distinct pending inserts (the most the
// overlay holds before background compaction starts), the batch lookup p50
// may be at most this many times the empty-overlay p50. On acl1 2k-rule
// hicuts (2 cores) ten runs measured 7.9–15.8x; the bound leaves 2x
// headroom over the worst. A prefix-expanding Tuple Space Search overlay
// measured ~265x on the same cell.
const MaxOverlayLookupRatio = 32

// overlayLookupBatch is the batch size of the overlay lookup measurement.
const overlayLookupBatch = 256

// UpdateSpeedup is the outcome of the update-heavy bench gate: the same
// single-rule update workload measured against the delta-overlay write path
// and against rebuild-per-update, on the same backend and rule set.
type UpdateSpeedup struct {
	Family  string `json:"family"`
	Size    int    `json:"size"`
	Backend string `json:"backend"`
	Updates int    `json:"updates"`
	// OverlayP50Nanos is the median single-update latency through the
	// overlay write path (no backend rebuild).
	OverlayP50Nanos float64 `json:"overlay_p50_nanos"`
	// RebuildP50Nanos is the median single-update latency through the
	// original rebuild-per-update path.
	RebuildP50Nanos float64 `json:"rebuild_p50_nanos"`
	// Factor is RebuildP50Nanos / OverlayP50Nanos.
	Factor float64 `json:"factor"`
	// EmptyLookupNanos and PendingLookupNanos are the per-packet batch
	// lookup p50 on the overlay engine with an empty overlay and with
	// engine.DefaultCompactThreshold-1 distinct pending inserts.
	EmptyLookupNanos   float64 `json:"empty_lookup_p50_nanos"`
	PendingLookupNanos float64 `json:"pending_lookup_p50_nanos"`
	// LookupRatio is PendingLookupNanos / EmptyLookupNanos.
	LookupRatio float64 `json:"lookup_ratio"`
}

// MeasureUpdateSpeedup builds the backend twice over the same generated
// rule set — once with the online-update subsystem, once without — applies
// the same insert/delete workload to each, and reports the median
// per-update latencies. Background compaction is disabled on the overlay
// engine so the measurement isolates the write path itself (a compaction
// would only make the rebuild side look better anyway, as it runs off the
// measured path). A third build, with the same overlay options, times
// batch lookups before and after filling the overlay.
func MeasureUpdateSpeedup(family string, size int, backend string, updates int, cfg RunConfig) (UpdateSpeedup, error) {
	cfg = cfg.WithDefaults()
	res := UpdateSpeedup{Family: family, Size: size, Backend: backend, Updates: updates}
	set, keys, err := fixture(family, size, 16*overlayLookupBatch, false, cfg)
	if err != nil {
		return res, err
	}

	overlayOpts := engine.Options{Shards: 1, Binth: cfg.Binth, Seed: cfg.Seed,
		OnlineUpdates: true, CompactThreshold: -1}
	rebuildOpts := engine.Options{Shards: 1, Binth: cfg.Binth, Seed: cfg.Seed}

	res.OverlayP50Nanos, err = measureUpdateP50(backend, set, updates, overlayOpts)
	if err != nil {
		return res, fmt.Errorf("perf: overlay update measurement: %w", err)
	}
	res.RebuildP50Nanos, err = measureUpdateP50(backend, set, updates, rebuildOpts)
	if err != nil {
		return res, fmt.Errorf("perf: rebuild update measurement: %w", err)
	}
	if res.OverlayP50Nanos > 0 {
		res.Factor = res.RebuildP50Nanos / res.OverlayP50Nanos
	}
	res.EmptyLookupNanos, res.PendingLookupNanos, err = measureOverlayLookup(backend, set, keys, overlayOpts)
	if err != nil {
		return res, fmt.Errorf("perf: overlay lookup measurement: %w", err)
	}
	if res.EmptyLookupNanos > 0 {
		res.LookupRatio = res.PendingLookupNanos / res.EmptyLookupNanos
	}
	return res, nil
}

// measureOverlayLookup returns the per-packet batch lookup p50 of a freshly
// built engine, first with an empty overlay and then with
// engine.DefaultCompactThreshold-1 distinct pending inserts (copies of
// distinct base rules at rotating positions). Each p50 pools the batches of
// four passes over the keys after one warm-up pass. opts must disable
// background compaction so the overlay stays full while it is measured.
func measureOverlayLookup(backend string, set *rule.Set, keys []rule.Packet, opts engine.Options) (empty, pending float64, err error) {
	eng, err := engine.NewEngine(backend, set, opts)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	tm := traceTiming(len(keys), overlayLookupBatch, 4)
	tm.warmup = true
	out := make([]engine.Result, overlayLookupBatch)
	p50 := func() (float64, error) {
		ps, err := tm.run(func(_, lo, hi int) error {
			eng.ClassifyBatch(keys[lo:hi], out[:hi-lo])
			return nil
		})
		return percentile(pooled(ps), 0.50) / overlayLookupBatch, err
	}

	if empty, err = p50(); err != nil {
		return 0, 0, err
	}
	inserts := engine.DefaultCompactThreshold - 1
	live := set.Len()
	for i := 0; i < inserts; i++ {
		// 7919 is prime, so the copied base rules are distinct whenever the
		// set has at least `inserts` rules.
		r := set.Rule((i * 7919) % set.Len())
		res, err := eng.Insert((i*37)%(live+1), r)
		if err != nil {
			return 0, 0, err
		}
		live = res.Rules
	}
	if n := eng.UpdaterStats().OverlayRules; n != inserts {
		return 0, 0, fmt.Errorf("overlay holds %d of %d pending inserts", n, inserts)
	}
	pending, err = p50()
	return empty, pending, err
}

// measureUpdateP50 applies `updates` alternating inserts and deletes to a
// freshly built engine and returns the median per-update latency. Inserts
// land at rotating positions so the workload is not a best-case pattern.
func measureUpdateP50(backend string, set *rule.Set, updates int, opts engine.Options) (float64, error) {
	eng, err := engine.NewEngine(backend, set, opts)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	template := set.Rule(0)

	// Warm the write path (pools, maps) with a couple of unmeasured updates.
	if res, err := eng.Insert(0, template); err != nil {
		return 0, err
	} else if _, err := eng.Delete(res.ID); err != nil {
		return 0, err
	}

	durations := make([]int64, 0, updates)
	pending := make([]int, 0, updates/2+1)
	live := set.Len()
	for len(durations) < updates {
		pos := (len(durations) * 37) % (live + 1)
		t0 := time.Now()
		res, err := eng.Insert(pos, template)
		durations = append(durations, time.Since(t0).Nanoseconds())
		if err != nil {
			return 0, err
		}
		live = res.Rules
		pending = append(pending, res.ID)
		if len(durations) >= updates {
			break
		}
		id := pending[0]
		pending = pending[1:]
		t0 = time.Now()
		res, err = eng.Delete(id)
		durations = append(durations, time.Since(t0).Nanoseconds())
		if err != nil {
			return 0, err
		}
		live = res.Rules
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	return percentile(durations, 0.50), nil
}

// CheckOverlayLookup asserts that pending updates keep lookups cheap: the
// batch lookup p50 with a full overlay must stay within
// MaxOverlayLookupRatio of the empty-overlay p50. It returns a violation
// message when it does not.
func CheckOverlayLookup(r UpdateSpeedup) (violation string) {
	if r.LookupRatio > MaxOverlayLookupRatio {
		return fmt.Sprintf(
			"%s_%d_%s: batch lookup p50 with %d pending inserts %.0fns/pkt is %.1fx the empty-overlay p50 %.0fns/pkt (want <= %dx)",
			r.Family, r.Size, r.Backend, engine.DefaultCompactThreshold-1, r.PendingLookupNanos, r.LookupRatio,
			r.EmptyLookupNanos, MaxOverlayLookupRatio)
	}
	return ""
}

// CheckUpdateSpeedup asserts the update subsystem's headline claim: the
// overlay write path's median update latency must beat rebuild-per-update
// by at least minFactor. It returns a violation message when it does not
// (the CI bench gate runs this with minFactor 1000).
func CheckUpdateSpeedup(r UpdateSpeedup, minFactor float64) (violation string) {
	if r.Factor < minFactor {
		return fmt.Sprintf(
			"%s_%d_%s: overlay update p50 %.0fns is only %.1fx faster than rebuild-per-update p50 %.0fns (want >= %.0fx)",
			r.Family, r.Size, r.Backend, r.OverlayP50Nanos, r.Factor, r.RebuildP50Nanos, minFactor)
	}
	return ""
}
