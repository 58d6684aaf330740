package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// windows is the number of equal slices a timed phase is cut into for
// throughput; the reported rate is their median, so one slice disturbed by
// another process on the machine does not move it.
const windows = 10

// serveLog records one timed serving phase, batch by batch.
type serveLog struct {
	start time.Time
	// latUs is each batch's latency from submission to holding its
	// results.
	latUs []float64
	// busyNs is each batch's timed work (for replay also the pcap read);
	// the correctness check between batches is outside it.
	busyNs []int64
	pkts   []int
	// endNs is when each batch finished, relative to start.
	endNs []int64
	// updUs is each acknowledged update's latency.
	updUs []float64
}

func newServeLog() *serveLog { return &serveLog{start: time.Now()} }

// batch records one batch that started its timed work at t0, was submitted
// at sub and returned its results at done.
func (l *serveLog) batch(t0, sub, done time.Time, n int) {
	l.latUs = append(l.latUs, float64(done.Sub(sub).Nanoseconds())/1e3)
	l.busyNs = append(l.busyNs, done.Sub(t0).Nanoseconds())
	l.pkts = append(l.pkts, n)
	l.endNs = append(l.endNs, done.Sub(l.start).Nanoseconds())
}

func (l *serveLog) update(d time.Duration) {
	l.updUs = append(l.updUs, float64(d.Nanoseconds())/1e3)
}

// packets is the number of packets the phase classified.
func (l *serveLog) packets() int {
	n := 0
	for _, p := range l.pkts {
		n += p
	}
	return n
}

// throughput is the median over the phase's windows of packets classified
// per second of timed work.
func (l *serveLog) throughput() float64 {
	if len(l.endNs) == 0 {
		return 0
	}
	span := l.endNs[len(l.endNs)-1] + 1
	var pk [windows]int
	var busy [windows]int64
	for i, end := range l.endNs {
		w := int(end * windows / span)
		pk[w] += l.pkts[i]
		busy[w] += l.busyNs[i]
	}
	var rates []float64
	for w := range pk {
		if busy[w] > 0 {
			rates = append(rates, float64(pk[w])/(float64(busy[w])/1e9))
		}
	}
	return median(rates)
}

// setBatchMetrics reports the phase's throughput and batch latency. The
// tails are printed beside the median but BENCHMARK.json does not bound
// them: on a small shared machine they move too much between runs (see
// README.md).
func (r *report) setBatchMetrics(l *serveLog, batchSize int) {
	r.set("throughput_pps", l.throughput(), fmt.Sprintf("batch=%d packets=%d windows=%d", batchSize, l.packets(), windows))
	note := fmt.Sprintf("n=%d", len(l.latUs))
	r.set("batch_p50_us", percentile(l.latUs, 50), note)
	r.set("batch_p90_us", percentile(l.latUs, 90), note)
	r.set("batch_p99_us", percentile(l.latUs, 99), note)
}

// setUpdateMetrics reports acknowledged update latency: the median, which
// BENCHMARK.json bounds, and the p99 beside it.
func (r *report) setUpdateMetrics(updUs []float64, note string) {
	note = fmt.Sprintf("n=%d %s", len(updUs), note)
	r.set("update_p50_us", percentile(updUs, 50), note)
	r.set("update_p99_us", percentile(updUs, 99), note)
}

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the middle value of xs (the mean of the middle two for an even
// count; 0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timeSetups runs setup reps times from a collected heap and returns the
// median wall time and the last instance; every earlier instance is closed
// before the next starts.
func timeSetups[T any](reps int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			closeFn(v)
		} else {
			inst = v
		}
	}
	return inst, median(times), nil
}

// allocsPerOp runs op n times and returns the heap allocations per unit of
// work (op returns how many units one call did). Only the goroutines op
// drives should be active, since the count is process-wide.
func allocsPerOp(n int, op func() int) float64 {
	op() // warm pools and scratch buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	units := 0
	for i := 0; i < n; i++ {
		units += op()
	}
	runtime.ReadMemStats(&after)
	if units == 0 {
		return 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(units)
}

// setupReps is how many times a run sets up: reps for an end-to-end run,
// once for a traced run, which reports no setup time.
func setupReps(cfg config, reps int) int {
	if cfg.trace {
		return 1
	}
	return reps
}
