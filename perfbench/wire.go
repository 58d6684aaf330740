package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/rule"
	"neurocuts/internal/server"
)

// wire-updates: the 10k-rule hicuts engine with online updates, served by
// internal/server on loopback to one v2 connection sending closed-loop
// batches, with one rule Insert or Delete every wireUpdateEvery batches.
const (
	wireRules = 10000
	wireBatch = 1024
	// wirePool is the packet pool's size in batches; batches cycle through
	// it in order.
	wirePool        = 64
	wireUpdateEvery = 4
	// wirePending is how many inserted rules stay live. The schedule
	// alternates deleting the oldest and re-inserting its ranges at a new
	// position, so the overlay always holds the same 31-32 rules, below
	// the compaction threshold of 256, and its probe cost does not drift
	// with how far a run gets through the schedule.
	wirePending = 32
)

// wireSystem is the served stack: an engine behind a TCP server.
type wireSystem struct {
	eng  *engine.Engine
	srv  *server.Server
	addr string
}

func (s wireSystem) close() {
	s.srv.Close()
	s.eng.Close()
}

// setupWire builds the engine and starts the server on loopback; wrap, when
// non-nil, wraps what the server serves.
func setupWire(set *rule.Set, wrap func(serving) serving) (wireSystem, error) {
	eng, err := engine.NewEngine("hicuts", set, engine.Options{OnlineUpdates: true})
	if err != nil {
		return wireSystem{}, err
	}
	var surface serving = eng
	if wrap != nil {
		surface = wrap(surface)
	}
	srv := server.New(surface)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		eng.Close()
		return wireSystem{}, err
	}
	return wireSystem{eng: eng, srv: srv, addr: addr.String()}, nil
}

func runWire(cfg config) (*report, error) {
	set, err := ruleSet(wireRules)
	if err != nil {
		return nil, err
	}
	pool := newTracePool(set, wirePool*wireBatch, cfg.seed)
	ins, err := updateRules(wirePending)
	if err != nil {
		return nil, err
	}
	// In a traced run the server serves a wrapper that times the engine
	// calls; its tracer is only set during the traced half.
	var spy *tracingServing
	wrap := cfg.wrap
	if cfg.trace {
		wrap = func(s serving) serving {
			if cfg.wrap != nil {
				s = cfg.wrap(s)
			}
			spy = &tracingServing{serving: s}
			return spy
		}
	}
	sys, setupS, err := timeSetups(setupReps(cfg, hicutsSetups), func() (wireSystem, error) { return setupWire(set, wrap) }, wireSystem.close)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	rep := newReport()
	rep.set("setup_s", setupS, fmt.Sprintf("median of %d: hicuts build+compile, engine, server listen", setupReps(cfg, hicutsSetups)))
	rep.setTreeMetrics(sys.eng.Metrics())

	var (
		art string
		tr  *tracer
	)
	if cfg.trace {
		tr = newTracer()
		if err := tracedHiCuts(set, sys.eng.Metrics(), tr, rep); err != nil {
			return nil, err
		}
		// Save before any update, so the artifact is the base the
		// overlay sits on.
		if art, err = saveArtifact(sys.eng, cfg.workdir); err != nil {
			return nil, err
		}
	}

	conn, err := dialV2(sys.addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	wc := newWireClient(conn, set, pool, ins, cfg.seed)
	if err := wc.prefill(rep); err != nil {
		return nil, err
	}
	wc.serve(warmup(cfg), nil, nil, rep)

	if !cfg.trace {
		log := wc.serve(cfg.seconds, nil, nil, rep)
		rep.setBatchMetrics(log, wireBatch)
		rep.setUpdateMetrics(log.updUs, fmt.Sprintf("one every %d batches, overlay held at %d rules", wireUpdateEvery, wirePending))
		return rep, nil
	}

	untraced := wc.serve(cfg.seconds/2, nil, nil, rep).throughput()
	samp := newOverlaySampler(sys.eng)
	first := wc.batchNo
	spy.tr.Store(tr)
	log := wc.serve(cfg.seconds/2, tr, samp, rep)
	spy.tr.Store(nil)
	rep.setOverhead(untraced, log.throughput())
	rep.setUpdaterSamples(samp)

	nb := wc.batchNo - first
	if err := compiledSideRun(art, nb, func(i int) []rule.Packet {
		ps, _ := pool.batch(first+i, wireBatch)
		return ps
	}, tr, rep); err != nil {
		return nil, err
	}
	sum := tr.summary()
	eng := sum[spanEngineBatch]
	rep.set("server.wire_us_per_batch", sum[spanWireBatch].selfMeanUs(), fmt.Sprintf("client span minus engine span, batches=%d", sum[spanWireBatch].count))
	rep.set("engine.classify_ns_per_pkt", eng.perPkt(), fmt.Sprintf("batches=%d", eng.count))
	rep.set("updater.overlay_ns_per_pkt", eng.perPkt()-sum[spanCompiledBatch].perPkt(), "engine minus compiled on the same batches")
	rep.set("engine.insert_us", sum[spanEngineInsert].meanUs(), fmt.Sprintf("n=%d", sum[spanEngineInsert].count))
	rep.set("engine.delete_us", sum[spanEngineDelete].meanUs(), fmt.Sprintf("n=%d", sum[spanEngineDelete].count))

	bpp, err := wireBytesPerPkt(sys.addr, pool, 16)
	if err != nil {
		return nil, err
	}
	rep.set("server.bytes_per_pkt", bpp, "both directions, 16 batches through a counting relay")
	ps, _ := pool.batch(0, wireBatch)
	out := make([]engine.Result, wireBatch)
	rep.set("engine.allocs_per_pkt", allocsPerOp(200, func() int { sys.eng.ClassifyBatch(ps, out); return len(ps) }), "200 batches, direct Engine.ClassifyBatch")
	rep.zeroLayers("iface.read_ns_per_pkt", "iface.skipped_frames", "dataplane.classify_ns_per_pkt", "dataplane.cache_hit_ratio",
		"dataplane.parks_per_batch", "dataplane.ring_high_watermark", "dataplane.core_imbalance", "dataplane.allocs_per_pkt",
		"train.s", "train.timesteps_per_s", "train.rollout_ms", "train.best_objective")
	return rep, tr.write(spanPath(cfg, "wire-updates"))
}

// tracingServing is what the server serves in a traced run: it times each
// engine call and parents the span to the client request waiting on it.
type tracingServing struct {
	serving
	tr atomic.Pointer[tracer]
}

func (w *tracingServing) ClassifyBatch(ps []rule.Packet, out []engine.Result) {
	tr := w.tr.Load()
	parent, req := tr.wireCtx()
	sp := tr.begin(spanEngineBatch, parent, req, len(ps))
	w.serving.ClassifyBatch(ps, out)
	tr.end(sp)
}

func (w *tracingServing) Insert(pos int, r rule.Rule) (engine.UpdateResult, error) {
	tr := w.tr.Load()
	parent, req := tr.wireCtx()
	sp := tr.begin(spanEngineInsert, parent, req, 0)
	defer tr.end(sp)
	return w.serving.Insert(pos, r)
}

func (w *tracingServing) Delete(id int) (engine.UpdateResult, error) {
	tr := w.tr.Load()
	parent, req := tr.wireCtx()
	sp := tr.begin(spanEngineDelete, parent, req, 0)
	defer tr.end(sp)
	return w.serving.Delete(id)
}

// wireClient drives one closed-loop v2 connection and mirrors every
// acknowledged update, so each reply is checked against the rule list that
// was live when its batch was sent.
type wireClient struct {
	c    *server.ClientV2
	pool tracePool
	// base is the served rule set before any update; its rule IDs equal
	// their indices.
	base *rule.Set
	// mirror is the live rule list: base plus the acknowledged inserts.
	mirror *rule.Set
	oracle liveOracle
	// fifo holds the live inserted rule IDs, oldest first.
	fifo []int
	// ins are the wirePending rules the schedule keeps re-inserting.
	ins     []rule.Rule
	nextIns int
	rng     *rand.Rand
	batchNo int
	req     int64
}

func newWireClient(c *server.ClientV2, base *rule.Set, pool tracePool, ins []rule.Rule, seed int64) *wireClient {
	return &wireClient{c: c, pool: pool, base: base, mirror: base.Clone(), ins: ins, rng: positions(seed)}
}

// prefill inserts wirePending rules before anything is measured, so the
// overlay starts at its steady size.
func (w *wireClient) prefill(rep *report) error {
	for len(w.fifo) < wirePending {
		if _, err := w.update(nil, rep); err != nil {
			return err
		}
	}
	return nil
}

// update sends the schedule's next update: a delete of the oldest inserted
// rule when wirePending of them are live, otherwise an insert of the next
// churn rule at a random position. Once the overlay is full the two alternate. It
// returns the acknowledged update's latency; a refused update is counted as
// failed.
func (w *wireClient) update(tr *tracer, rep *report) (time.Duration, error) {
	w.req++
	if len(w.fifo) >= wirePending {
		id := w.fifo[0]
		sp := tr.begin(spanWireDelete, -1, w.req, 0)
		tr.setWireCtx(sp, w.req)
		t0 := time.Now()
		_, err := w.c.DeleteRule(id)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			rep.failed++
			return 0, fmt.Errorf("delete of rule %d refused: %w", id, err)
		}
		w.fifo = w.fifo[1:]
		for i, r := range w.mirror.Rules() {
			if r.ID == id {
				w.mirror.Remove(i)
				break
			}
		}
		w.oracle.rebuild(w.mirror, w.base.Len())
		return d, nil
	}
	r := w.ins[w.nextIns%len(w.ins)]
	w.nextIns++
	pos := w.rng.Intn(w.mirror.Len() + 1)
	sp := tr.begin(spanWireInsert, -1, w.req, 0)
	tr.setWireCtx(sp, w.req)
	t0 := time.Now()
	id, _, err := w.c.AddRule(pos, r)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		rep.failed++
		return 0, fmt.Errorf("insert refused: %w", err)
	}
	r.ID = id
	w.mirror.Insert(pos, r)
	w.fifo = append(w.fifo, id)
	w.oracle.rebuild(w.mirror, w.base.Len())
	return d, nil
}

// serve runs the closed loop for d: every wireUpdateEvery-th step is an
// update, the rest are batches.
func (w *wireClient) serve(d time.Duration, tr *tracer, samp *overlaySampler, rep *report) *serveLog {
	log := newServeLog()
	deadline := log.start.Add(d)
	for time.Now().Before(deadline) {
		w.batchNo++
		if w.batchNo%wireUpdateEvery == 0 {
			lat, err := w.update(tr, rep)
			if err == nil {
				log.update(lat)
			}
		}
		ps, want := w.pool.batch(w.batchNo, wireBatch)
		w.req++
		sp := tr.begin(spanWireBatch, -1, w.req, len(ps))
		tr.setWireCtx(sp, w.req)
		t0 := time.Now()
		res, err := w.c.ClassifyBatch(ps)
		done := time.Now()
		tr.end(sp)

		rep.attempted += int64(len(ps))
		if err != nil || len(res) != len(ps) {
			rep.failed += int64(len(ps))
			continue
		}
		log.batch(t0, t0, done, len(ps))
		for i, p := range ps {
			if !res[i].OK || res[i].Rule.ID != w.oracle.match(p, int(want[i])) {
				rep.failed++
			}
		}
		samp.sample()
	}
	return log
}

// liveOracle answers Set.Match on the live rule list without scanning all of
// it. The schedule only ever deletes inserted rules, so every base rule is
// live and a packet's base winner (known from the trace) still matches;
// only inserted rules ranked ahead of it can beat it.
type liveOracle struct {
	// inserted lists the live inserted rules in list order, each with
	// the index of the first base rule after it.
	inserted []anchored
}

type anchored struct {
	r rule.Rule
	// before is the base index of the first base rule ranked after r.
	before int
}

// rebuild recomputes the inserted rules' anchors from the live list. Base
// rule IDs are below nBase and equal their base index.
func (o *liveOracle) rebuild(live *rule.Set, nBase int) {
	o.inserted = o.inserted[:0]
	rs := live.Rules()
	next := nBase
	for i := len(rs) - 1; i >= 0; i-- {
		if rs[i].ID < nBase {
			next = rs[i].ID
			continue
		}
		o.inserted = append(o.inserted, anchored{r: rs[i], before: next})
	}
	for i, j := 0, len(o.inserted)-1; i < j; i, j = i+1, j-1 {
		o.inserted[i], o.inserted[j] = o.inserted[j], o.inserted[i]
	}
}

// match returns the ID of the live rule that wins for p, given the base
// rule baseWinner that wins on the base list alone.
func (o *liveOracle) match(p rule.Packet, baseWinner int) int {
	for _, a := range o.inserted {
		if a.before > baseWinner {
			break
		}
		if a.r.Matches(p) {
			return a.r.ID
		}
	}
	return baseWinner
}

// wireBytesPerPkt sends batches from the pool through a loopback relay that
// counts the bytes it forwards, and returns bytes per packet, both
// directions together.
func wireBytesPerPkt(addr string, pool tracePool, batches int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var moved atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		in, err := ln.Accept()
		if err != nil {
			return
		}
		defer in.Close()
		out, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer out.Close()
		var up sync.WaitGroup
		up.Add(1)
		go func() {
			defer up.Done()
			n, _ := io.Copy(out, in)
			moved.Add(n)
			out.(*net.TCPConn).CloseWrite()
		}()
		n, _ := io.Copy(in, out)
		moved.Add(n)
		up.Wait()
	}()

	err = sendBatches(ln.Addr().String(), pool, batches)
	// The relay ends once the client has closed, or at once when it never
	// connected.
	ln.Close()
	wg.Wait()
	if err != nil {
		return 0, err
	}
	return float64(moved.Load()) / float64(batches*wireBatch), nil
}

// sendBatches sends the pool's first batches over a new v2 connection.
func sendBatches(addr string, pool tracePool, batches int) error {
	c, err := dialV2(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < batches; i++ {
		ps, _ := pool.batch(i, wireBatch)
		if _, err := c.ClassifyBatch(ps); err != nil {
			return err
		}
	}
	return nil
}

// dialV2 connects a v2 client to the loopback server.
func dialV2(addr string) (*server.ClientV2, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return server.DialV2(ctx, addr)
}
