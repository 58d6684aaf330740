package main

import (
	"errors"
	"fmt"
	"time"

	"neurocuts/internal/core"
	"neurocuts/internal/engine"
	"neurocuts/internal/env"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// neurocuts-build: NeuroCuts trained on 1k acl1 rules at a fixed budget,
// compiled, then serving in-process Engine.ClassifyBatch with no cache and
// no updates during the serve.
const (
	ncRules     = 1000
	ncTimesteps = 20000
	ncBatch     = 256
	// ncPool is the packet pool's size in batches.
	ncPool = 256
	// ncSetups is how many times the workload trains; setup_s is the
	// median.
	ncSetups = 3
	// ncSampleTrees is how many greedy trees the traced run samples from
	// the trained policy to time a rollout.
	ncSampleTrees = 5
)

// ncOptions is the engine configuration the workload serves. Workers is 1:
// with two rollout workers the job seeds depend on goroutine timing, so the
// learned tree differs run to run (three runs at 20k timesteps gave
// memory_bytes of 48,584, 30,240 and 54,840); with one worker every run
// learns the same tree.
func ncOptions() engine.Options {
	return engine.Options{Timesteps: ncTimesteps, Workers: 1, Seed: 1, OnlineUpdates: true}
}

// ncTrainerConfig is the trainer configuration the engine's neurocuts
// backend derives from ncOptions; the traced run trains with it directly.
func ncTrainerConfig() core.Config {
	cfg := core.Scaled(1000)
	cfg.Binth = tree.DefaultBinth
	cfg.MaxTimesteps = ncTimesteps
	cfg.BatchTimesteps = max(256, ncTimesteps/10)
	cfg.Workers = 1
	cfg.Seed = 1
	cfg.Partition = env.PartitionNone
	return cfg
}

func runNeuroCuts(cfg config) (*report, error) {
	set, err := ruleSet(ncRules)
	if err != nil {
		return nil, err
	}
	pool := newTracePool(set, ncPool*ncBatch, cfg.seed)
	eng, setupS, err := timeSetups(setupReps(cfg, ncSetups), func() (*engine.Engine, error) {
		return engine.NewEngine("neurocuts", set, ncOptions())
	}, (*engine.Engine).Close)
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	rep := newReport()
	rep.set("setup_s", setupS, fmt.Sprintf("median of %d: training, compile, engine", setupReps(cfg, ncSetups)))
	rep.setTreeMetrics(eng.Metrics())
	var surface serving = eng
	if cfg.wrap != nil {
		surface = cfg.wrap(surface)
	}
	srv := &batchServer{s: surface, pool: pool}
	srv.serve(warmup(cfg), nil, nil, rep)

	if !cfg.trace {
		log := srv.serve(cfg.seconds, nil, nil, rep)
		rep.setBatchMetrics(log, ncBatch)
		lat, err := probeUpdates(surface, set, cfg.seed, nil, rep)
		if err != nil {
			return nil, err
		}
		rep.setUpdateMetrics(lat, "insert+delete pairs after the serve")
		return rep, nil
	}

	tr := newTracer()
	if err := tracedTrain(set, eng.Metrics(), tr, rep); err != nil {
		return nil, err
	}
	art, err := saveArtifact(eng, cfg.workdir)
	if err != nil {
		return nil, err
	}
	untraced := srv.serve(cfg.seconds/2, nil, nil, rep).throughput()
	samp := newOverlaySampler(eng)
	first := srv.batchNo
	log := srv.serve(cfg.seconds/2, tr, samp, rep)
	rep.setOverhead(untraced, log.throughput())
	rep.setUpdaterSamples(samp)
	if err := compiledSideRun(art, srv.batchNo-first, func(i int) []rule.Packet {
		ps, _ := pool.batch(first+i, ncBatch)
		return ps
	}, tr, rep); err != nil {
		return nil, err
	}
	ps, _ := pool.batch(0, ncBatch)
	out := make([]engine.Result, ncBatch)
	rep.set("engine.allocs_per_pkt", allocsPerOp(200, func() int { eng.ClassifyBatch(ps, out); return len(ps) }), "200 batches")
	if _, err := probeUpdates(surface, set, cfg.seed, tr, rep); err != nil {
		return nil, err
	}
	sum := tr.summary()
	engBatch := sum[spanEngineBatch]
	rep.set("engine.classify_ns_per_pkt", engBatch.perPkt(), fmt.Sprintf("batches=%d", engBatch.count))
	rep.set("updater.overlay_ns_per_pkt", engBatch.perPkt()-sum[spanCompiledBatch].perPkt(), "engine minus compiled on the same batches")
	rep.set("engine.insert_us", sum[spanEngineInsert].meanUs(), fmt.Sprintf("n=%d", sum[spanEngineInsert].count))
	rep.set("engine.delete_us", sum[spanEngineDelete].meanUs(), fmt.Sprintf("n=%d", sum[spanEngineDelete].count))
	rep.zeroLayers("iface.read_ns_per_pkt", "iface.skipped_frames", "dataplane.classify_ns_per_pkt", "dataplane.cache_hit_ratio",
		"dataplane.parks_per_batch", "dataplane.ring_high_watermark", "dataplane.core_imbalance", "dataplane.allocs_per_pkt",
		"server.wire_us_per_batch", "server.bytes_per_pkt")
	return rep, tr.write(spanPath(cfg, "neurocuts-build"))
}

// ncTrainAttempts bounds how often the traced run trains to reproduce the
// served tree. Even with one rollout worker the trainer's job seeds race
// with its feeder goroutine, so a machine that stalls the feeder for a whole
// rollout yields another tree (two of about sixty trainings on a 2-vCPU VM).
const ncTrainAttempts = 3

// tracedTrain trains NeuroCuts with the backend's own configuration, with
// spans around Trainer.Train, Trainer.SampleTree and compiled.Compile. The
// trained tree must reproduce the served one; an attempt that does not is
// discarded with its spans, and the run fails after ncTrainAttempts.
func tracedTrain(set *rule.Set, served engine.Metrics, tr *tracer, rep *report) error {
	var err error
	for attempt := 1; attempt <= ncTrainAttempts; attempt++ {
		mark := tr.len()
		if err = trainOnce(set, served, tr, rep); !errors.Is(err, errNotReproduced) {
			if err == nil {
				rep.notes["train.s"] += fmt.Sprintf(", attempt %d", attempt)
			}
			return err
		}
		tr.truncate(mark)
	}
	return err
}

func trainOnce(set *rule.Set, served engine.Metrics, tr *tracer, rep *report) error {
	t := core.NewTrainer(set, ncTrainerConfig())
	sp := tr.begin(spanTrain, -1, 0, 0)
	t0 := time.Now()
	_, err := t.Train()
	trainS := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return err
	}
	best, objective := t.BestTree()
	if best == nil {
		return fmt.Errorf("training produced no tree")
	}
	for i := 0; i < ncSampleTrees; i++ {
		sp := tr.begin(spanSampleTree, -1, int64(i), 0)
		t.SampleTree(int64(i+1), true)
		tr.end(sp)
	}
	rep.set("train.s", trainS, fmt.Sprintf("%d timesteps", t.TotalSteps()))
	rep.set("train.timesteps_per_s", float64(t.TotalSteps())/trainS, "")
	rep.set("train.rollout_ms", tr.summary()[spanSampleTree].meanUs()/1e3, fmt.Sprintf("mean of %d greedy trees", ncSampleTrees))
	rep.set("train.best_objective", objective, "")
	return tracedCompile(set, best, served, tr, rep)
}

// batchServer drives a serving surface in-process: closed-loop batches
// cycled through the pool, each checked against the ground truth outside
// its timed interval.
type batchServer struct {
	s       serving
	pool    tracePool
	batchNo int
}

func (b *batchServer) serve(d time.Duration, tr *tracer, samp *overlaySampler, rep *report) *serveLog {
	out := make([]engine.Result, ncBatch)
	log := newServeLog()
	deadline := log.start.Add(d)
	for time.Now().Before(deadline) {
		b.batchNo++
		ps, want := b.pool.batch(b.batchNo, ncBatch)
		sp := tr.begin(spanEngineBatch, -1, int64(b.batchNo), len(ps))
		t0 := time.Now()
		b.s.ClassifyBatch(ps, out)
		done := time.Now()
		tr.end(sp)
		log.batch(t0, t0, done, len(ps))
		rep.attempted += int64(len(ps))
		rep.failed += mismatches(out, want)
		samp.sample()
	}
	return log
}
