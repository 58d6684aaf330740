package perf

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// fixture generates a gate cell's workload: family's size-rule set from
// cfg.Seed and the keys of an n-packet trace over it, seeded cfg.Seed+7.
// The trace is the generator's flow bursts (few flows carry most packets),
// or with zipf the Zipf-skewed population of cfg.Flows flows at
// cfg.ZipfSkew.
func fixture(family string, size, n int, zipf bool, cfg RunConfig) (*rule.Set, []rule.Packet, error) {
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		return nil, nil, err
	}
	set := classbench.Generate(fam, size, cfg.Seed)
	var trace []packet.TraceEntry
	if zipf {
		trace = classbench.ZipfTrace(set, n, cfg.Flows, cfg.ZipfSkew, cfg.Seed+7)
	} else {
		trace = classbench.GenerateTrace(set, n, cfg.Seed+7)
	}
	keys := make([]rule.Packet, len(trace))
	for i, e := range trace {
		keys[i] = e.Key
	}
	return set, keys, nil
}

// timing is the timing core every gate cell shares. After an optional
// unmeasured warm-up pass it runs `passes` measured passes; in a pass each
// of `submitters` goroutines (0 or 1: the calling goroutine) submits
// `batches` consecutive windows of `batch` packets over a trace of
// `packets` packets, wrapping at its end, and every window's latency lands
// in a buffer allocated before the first pass — so the measured spans
// themselves allocate nothing beyond the work being timed.
type timing struct {
	packets    int
	warmup     bool
	passes     int
	batches    int
	batch      int
	submitters int
	// beforePass, when set, runs untimed before every pass, warm-up
	// included (a realtrace pass re-opens its pcap reader there).
	beforePass func() error
}

// pass is one measured pass of a timing run.
type pass struct {
	// lats holds every window's latency in nanoseconds, sorted ascending.
	lats []int64
	// pps is the pass's aggregate packet rate: every window's packets over
	// the pass's wall-clock time.
	pps float64
	// mallocs counts the process's heap allocations during the pass.
	mallocs uint64
}

// run times the passes. window classifies the packets [lo, hi) of the
// trace on behalf of submitter sub, which is its only caller.
func (t timing) run(window func(sub, lo, hi int) error) ([]pass, error) {
	subs := max(t.submitters, 1)
	if t.packets <= 0 || t.batch <= 0 || t.batches <= 0 {
		return nil, fmt.Errorf("perf: empty timing workload (%d packets, %d batches of %d)", t.packets, t.batches, t.batch)
	}
	span := func(s, b int) (lo, hi int) {
		lo = ((s*t.batches + b) * t.batch) % t.packets
		return lo, min(lo+t.batch, t.packets)
	}
	perPass := subs * t.batches
	total := 0 // packets per pass
	for i := range perPass {
		lo, hi := span(i/t.batches, i%t.batches)
		total += hi - lo
	}
	buf := make([]int64, perPass*max(t.passes, 1))
	errs := make([]error, subs)
	submit := func(s int, lats []int64) {
		for b := 0; b < t.batches; b++ {
			lo, hi := span(s, b)
			t0 := time.Now()
			err := window(s, lo, hi)
			lats[s*t.batches+b] = time.Since(t0).Nanoseconds()
			if err != nil {
				errs[s] = err
				return
			}
		}
	}
	drive := func(lats []int64) (time.Duration, uint64, error) {
		if t.beforePass != nil {
			if err := t.beforePass(); err != nil {
				return 0, 0, err
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if subs == 1 {
			submit(0, lats)
		} else {
			var wg sync.WaitGroup
			wg.Add(subs)
			for s := 0; s < subs; s++ {
				go func() {
					defer wg.Done()
					submit(s, lats)
				}()
			}
			wg.Wait()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		for _, err := range errs {
			if err != nil {
				return 0, 0, err
			}
		}
		return elapsed, after.Mallocs - before.Mallocs, nil
	}

	if t.warmup {
		if _, _, err := drive(buf[:perPass]); err != nil {
			return nil, err
		}
	}
	out := make([]pass, t.passes)
	for i := range out {
		lats := buf[i*perPass : (i+1)*perPass]
		elapsed, mallocs, err := drive(lats)
		if err != nil {
			return nil, err
		}
		slices.Sort(lats)
		out[i] = pass{lats: lats, pps: float64(total) / elapsed.Seconds(), mallocs: mallocs}
	}
	return out, nil
}

// traceTiming times `passes` passes that each send an n-packet trace once,
// in consecutive batches (the last one short when batch does not divide n).
func traceTiming(n, batch, passes int) timing {
	return timing{packets: n, passes: passes, batches: (n + batch - 1) / max(batch, 1), batch: batch}
}

// rate runs the passes and returns the best packet rate.
func (t timing) rate(window func(sub, lo, hi int) error) (float64, error) {
	ps, err := t.run(window)
	return bestPPS(ps), err
}

// lowest returns the pass whose q-quantile latency is lowest, the
// zero pass when there are none.
func lowest(ps []pass, q float64) pass {
	var best pass
	for i, p := range ps {
		if i == 0 || percentile(p.lats, q) < percentile(best.lats, q) {
			best = p
		}
	}
	return best
}

// bestPPS returns the highest packet rate of the passes.
func bestPPS(ps []pass) float64 {
	best := 0.0
	for _, p := range ps {
		best = max(best, p.pps)
	}
	return best
}

// pooled returns every pass's latencies in one sorted slice.
func pooled(ps []pass) []int64 {
	var all []int64
	for _, p := range ps {
		all = append(all, p.lats...)
	}
	slices.Sort(all)
	return all
}
