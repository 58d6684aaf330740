package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/dataplane"
	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/internal/rule"
)

// replay-zipf: a Zipf-skewed capture replayed at maximum rate through
// iface.PcapReader into a dataplane with per-core flow caches, the shape of
// classifyd -pcap -cores -flow-cache.
const (
	replayRules = 10000
	replayFlows = 20000
	replaySkew  = 1.1
	// replayBatch is the ReadBatch span, classifyd's ingest batch.
	replayBatch = 512
	// replayCapture is the rendered capture's length in packets, a whole
	// number of batches so every read of a pass is full.
	replayCapture = 512 * replayBatch
	// replayCache is the flow-cache budget split across the per-core
	// caches.
	replayCache = 1 << 15
)

// replaySystem is the served stack: an engine with a dataplane in front.
type replaySystem struct {
	eng *engine.Engine
	dp  *dataplane.Dataplane
}

func setupReplay(set *rule.Set) (replaySystem, error) {
	eng, err := engine.NewEngine("hicuts", set, engine.Options{OnlineUpdates: true})
	if err != nil {
		return replaySystem{}, err
	}
	dp, err := dataplane.Attach(eng, dataplane.Config{Cores: runtime.GOMAXPROCS(0), CacheEntries: replayCache})
	if err != nil {
		eng.Close()
		return replaySystem{}, err
	}
	return replaySystem{eng: eng, dp: dp}, nil
}

func runReplay(cfg config) (*report, error) {
	set, err := ruleSet(replayRules)
	if err != nil {
		return nil, err
	}
	capt, err := newCapture(set, cfg.seed)
	if err != nil {
		return nil, err
	}
	sys, setupS, err := timeSetups(setupReps(cfg, hicutsSetups), func() (replaySystem, error) { return setupReplay(set) },
		func(s replaySystem) { s.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer sys.eng.Close()

	rep := newReport()
	rep.set("setup_s", setupS, fmt.Sprintf("median of %d: hicuts build+compile, engine, dataplane", setupReps(cfg, hicutsSetups)))
	rep.setTreeMetrics(sys.eng.Metrics())
	var surface serving = sys.dp
	if cfg.wrap != nil {
		surface = cfg.wrap(surface)
	}
	rp := &replayer{capt: capt, s: surface}
	if err := rp.reopen(); err != nil {
		return nil, err
	}
	rp.serve(warmup(cfg), nil, nil, rep)

	if !cfg.trace {
		log := rp.serve(cfg.seconds, nil, nil, rep)
		rep.setBatchMetrics(log, replayBatch)
		lat, err := probeUpdates(surface, set, cfg.seed, nil, rep)
		if err != nil {
			return nil, err
		}
		rep.setUpdateMetrics(lat, "insert+delete pairs through the dataplane after the serve")
		rep.failed += rp.skipped()
		return rep, nil
	}

	tr := newTracer()
	if err := tracedHiCuts(set, sys.eng.Metrics(), tr, rep); err != nil {
		return nil, err
	}
	art, err := saveArtifact(sys.eng, cfg.workdir)
	if err != nil {
		return nil, err
	}
	untraced := rp.serve(cfg.seconds/2, nil, nil, rep).throughput()
	before := sys.dp.Stats()
	samp := newOverlaySampler(sys.eng)
	first := rp.pos / replayBatch
	log := rp.serve(cfg.seconds/2, tr, samp, rep)
	after := sys.dp.Stats()
	rep.setOverhead(untraced, log.throughput())
	rep.setUpdaterSamples(samp)

	sum := tr.summary()
	rep.set("iface.read_ns_per_pkt", sum[spanPcapRead].perPkt(), fmt.Sprintf("batches=%d", sum[spanPcapRead].count))
	rep.set("dataplane.classify_ns_per_pkt", sum[spanDataplane].perPkt(), fmt.Sprintf("batches=%d", sum[spanDataplane].count))
	setDataplaneCounters(rep, before, after, len(log.pkts))

	batch := capt.ps[:replayBatch]
	out := make([]engine.Result, replayBatch)
	rep.set("dataplane.allocs_per_pkt", allocsPerOp(200, func() int { sys.dp.ClassifyBatch(batch, out); return len(batch) }), "200 batches")
	rep.set("engine.allocs_per_pkt", allocsPerOp(200, func() int { sys.eng.ClassifyBatch(batch, out); return len(batch) }), "200 batches, Engine.ClassifyBatch side run")

	if err := compiledSideRun(art, len(log.pkts), func(i int) []rule.Packet {
		lo := ((first + i) % (replayCapture / replayBatch)) * replayBatch
		return capt.ps[lo : lo+replayBatch]
	}, tr, rep); err != nil {
		return nil, err
	}
	if _, err := probeUpdates(surface, set, cfg.seed, tr, rep); err != nil {
		return nil, err
	}
	sum = tr.summary()
	rep.set("engine.insert_us", sum[spanEngineInsert].meanUs(), fmt.Sprintf("n=%d, through the dataplane", sum[spanEngineInsert].count))
	rep.set("engine.delete_us", sum[spanEngineDelete].meanUs(), fmt.Sprintf("n=%d, through the dataplane", sum[spanEngineDelete].count))
	rep.set("iface.skipped_frames", float64(rp.skipped()), "")
	rep.failed += rp.skipped()
	rep.zeroLayers("server.wire_us_per_batch", "server.bytes_per_pkt", "engine.classify_ns_per_pkt",
		"updater.overlay_ns_per_pkt", "train.s", "train.timesteps_per_s", "train.rollout_ms", "train.best_objective")
	return rep, tr.write(spanPath(cfg, "replay-zipf"))
}

// setDataplaneCounters reports the dataplane's own counters over a phase.
func setDataplaneCounters(rep *report, before, after dataplane.Stats, batches int) {
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	rep.set("dataplane.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), fmt.Sprintf("hits=%d misses=%d", hits, misses))
	var parks uint64
	var hwm int
	var pk []float64
	for i, c := range after.PerCore {
		parks += c.Parks - before.PerCore[i].Parks
		hwm = max(hwm, c.RingHighWatermark)
		pk = append(pk, float64(c.Packets-before.PerCore[i].Packets))
	}
	rep.set("dataplane.parks_per_batch", float64(parks)/float64(max(batches, 1)), fmt.Sprintf("parks=%d batches=%d", parks, batches))
	rep.set("dataplane.ring_high_watermark", float64(hwm), fmt.Sprintf("max over %d cores, of %d slots", len(pk), after.RingCapacity))
	top := 0.0
	for _, p := range pk {
		top = max(top, p)
	}
	rep.set("dataplane.core_imbalance", top/max(mean(pk), 1), "max/mean packets per core")
}

// capture is the rendered pcap with its packets and expected rule IDs in
// capture order.
type capture struct {
	pcap []byte
	tracePool
}

// newCapture draws the Zipf trace and renders it as a pcap. Keys are
// canonicalised first: protocols without ports carry zero ports on the wire,
// so the ground truth is recomputed for the key the decoder will produce.
func newCapture(set *rule.Set, seed int64) (capture, error) {
	tr := classbench.ZipfTrace(set, replayCapture, replayFlows, replaySkew, subSeed(seed, streamTraffic))
	memo := map[rule.Packet]int{}
	for i := range tr {
		k := iface.CanonicalKey(tr[i].Key)
		if k == tr[i].Key {
			continue
		}
		idx, ok := memo[k]
		if !ok {
			idx = set.MatchIndex(k)
			memo[k] = idx
		}
		tr[i].Key, tr[i].MatchRule = k, idx
	}
	var buf bytes.Buffer
	if err := iface.WriteTracePcap(&buf, tr); err != nil {
		return capture{}, err
	}
	return capture{pcap: buf.Bytes(), tracePool: poolFromTrace(set, tr)}, nil
}

// replayer replays the capture in a closed loop, pass after pass.
type replayer struct {
	capt capture
	s    serving
	rd   *iface.PcapReader
	pos  int // packets of the current pass already read
	// done counts frames skipped by readers of finished passes.
	doneSkipped uint64
	ps          []rule.Packet
	out         []engine.Result
	req         int64
}

// reopen starts a new pass over the capture.
func (r *replayer) reopen() error {
	if r.rd != nil {
		r.doneSkipped += r.rd.Stats().Skipped
	}
	rd, err := iface.NewPcapReader(bytes.NewReader(r.capt.pcap), iface.PcapConfig{})
	if err != nil {
		return err
	}
	r.rd, r.pos = rd, 0
	if r.ps == nil {
		r.ps = make([]rule.Packet, replayBatch)
		r.out = make([]engine.Result, replayBatch)
	}
	return nil
}

func (r *replayer) skipped() int64 {
	return int64(r.doneSkipped + r.rd.Stats().Skipped)
}

// serve replays for d and returns the phase's log. Every batch is checked
// against the capture's ground truth outside its timed interval.
func (r *replayer) serve(d time.Duration, tr *tracer, samp *overlaySampler, rep *report) *serveLog {
	log := newServeLog()
	deadline := log.start.Add(d)
	for time.Now().Before(deadline) {
		r.req++
		root := tr.begin(spanReplayBatch, -1, r.req, replayBatch)
		t0 := time.Now()
		sp := tr.begin(spanPcapRead, root, r.req, replayBatch)
		n, err := r.rd.ReadBatch(r.ps)
		tr.end(sp)
		sub := time.Now()
		sp = tr.begin(spanDataplane, root, r.req, n)
		r.s.ClassifyBatch(r.ps[:n], r.out[:n])
		tr.end(sp)
		done := time.Now()
		tr.end(root)

		log.batch(t0, sub, done, n)
		rep.attempted += replayBatch
		rep.failed += int64(replayBatch-n) + mismatches(r.out[:n], r.capt.want[r.pos:r.pos+n])
		r.pos += n
		samp.sample()
		if err != nil || n < replayBatch || r.pos == len(r.capt.want) {
			if err := r.reopen(); err != nil {
				rep.failed++
				return log
			}
		}
	}
	return log
}

// warmup is how long each workload serves untimed before measuring.
func warmup(cfg config) time.Duration {
	return min(time.Second, cfg.seconds/4)
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config, name string) string {
	return filepath.Join(cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.tsv", name, cfg.seed))
}
