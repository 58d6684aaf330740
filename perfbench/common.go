package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"neurocuts/internal/compiled"
	"neurocuts/internal/engine"
	"neurocuts/internal/hicuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// serving is the surface a workload drives. engine.Engine and
// dataplane.Dataplane satisfy it, and it is what server.New serves.
type serving interface {
	Classify(p rule.Packet) (rule.Rule, bool)
	ClassifyBatch(ps []rule.Packet, out []engine.Result)
	Insert(pos int, r rule.Rule) (engine.UpdateResult, error)
	Delete(id int) (engine.UpdateResult, error)
}

// hicutsSetups is how many times a hicuts workload sets up; setup_s is the
// median.
const hicutsSetups = 5

// mismatches counts results that differ from the expected rule IDs.
func mismatches(out []engine.Result, want []int32) int64 {
	var bad int64
	for i, w := range want {
		if !out[i].OK || int32(out[i].Rule.ID) != w {
			bad++
		}
	}
	return bad
}

// setTreeMetrics reports the served classifier's paper metrics.
func (r *report) setTreeMetrics(m engine.Metrics) {
	r.set("lookup_cost", float64(m.LookupCost), m.Backend)
	r.set("memory_bytes", float64(m.MemoryBytes), m.Backend)
	r.set("compiled_bytes", float64(m.CompiledBytes), m.Backend)
}

// probeTime and probeRules bound probeUpdates: it applies insert+delete
// pairs for at least probeTime and at least probeRules pairs, cycling
// through probeRules generated rules. A probe of a fraction of a second
// would sample one moment of the machine's load; two seconds average it.
const (
	probeTime  = 2 * time.Second
	probeRules = 500
)

// probeUpdates applies insert+delete pairs through s after the timed serve
// of a workload whose serve is read-only, so every workload reports update
// latency on its own serving surface. Each pair inserts a generated rule at
// a random position, checks that a packet inside it now classifies as the
// live rule list says, and deletes it again, so the served rule list is
// unchanged afterwards. Pairs run back to back for probeTime (and at least
// probeRules pairs). It returns every acknowledged update's latency.
func probeUpdates(s serving, set *rule.Set, seed int64, tr *tracer, rep *report) ([]float64, error) {
	rules, err := updateRules(probeRules)
	if err != nil {
		return nil, err
	}
	rng := positions(seed)
	n := set.Len()
	var lat []float64
	// Start from a collected heap, so the serve's garbage is not collected
	// on the probe's time.
	runtime.GC()
	start := time.Now()
	for i := 0; i < len(rules) || time.Since(start) < probeTime; i++ {
		r := rules[i%len(rules)]
		pos := rng.Intn(n + 1)
		sp := tr.begin(spanEngineInsert, -1, int64(i), 0)
		t0 := time.Now()
		res, err := s.Insert(pos, r)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil || res.Rules != n+1 {
			rep.failed++
			continue
		}
		lat = append(lat, float64(d.Nanoseconds())/1e3)

		// The inserted rule wins for a packet inside it unless a served
		// rule ahead of position pos matches first.
		p := cornerPacket(r)
		want := res.ID
		if b := set.MatchIndex(p); b < pos {
			want = set.Rule(b).ID
		}
		rep.attempted++
		if got, ok := s.Classify(p); !ok || got.ID != want {
			rep.failed++
		}

		sp = tr.begin(spanEngineDelete, -1, int64(i), 0)
		t0 = time.Now()
		res, err = s.Delete(res.ID)
		d = time.Since(t0)
		tr.end(sp)
		if err != nil || res.Rules != n {
			return lat, fmt.Errorf("deleting probe rule: %v (rules %d, want %d)", err, res.Rules, n)
		}
		lat = append(lat, float64(d.Nanoseconds())/1e3)
	}
	return lat, nil
}

// cornerPacket is the packet at the low corner of r's box, which r matches.
func cornerPacket(r rule.Rule) rule.Packet {
	return rule.Packet{
		SrcIP:   uint32(r.Ranges[rule.DimSrcIP].Lo),
		DstIP:   uint32(r.Ranges[rule.DimDstIP].Lo),
		SrcPort: uint16(r.Ranges[rule.DimSrcPort].Lo),
		DstPort: uint16(r.Ranges[rule.DimDstPort].Lo),
		Proto:   uint8(r.Ranges[rule.DimProto].Lo),
	}
}

// tracedHiCuts rebuilds the engine's hicuts tree and compiles it, with
// spans around hicuts.Build and compiled.Compile. The rebuild uses the
// engine backend's own configuration, so it must reproduce the served
// classifier's metrics; otherwise the trace would describe another program.
func tracedHiCuts(set *rule.Set, served engine.Metrics, tr *tracer, rep *report) error {
	cfg := hicuts.DefaultConfig()
	cfg.Binth = tree.DefaultBinth
	sp := tr.begin(spanHiCutsBuild, -1, 0, 0)
	t, err := hicuts.Build(set, cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	return tracedCompile(set, t, served, tr, rep)
}

// errNotReproduced marks a traced rebuild whose tree differs from the served
// one.
var errNotReproduced = errors.New("traced build differs from the served classifier")

// tracedCompile compiles t with a span around compiled.Compile and checks
// that the tree and its compiled form match what the engine serves.
func tracedCompile(set *rule.Set, t *tree.Tree, served engine.Metrics, tr *tracer, rep *report) error {
	sp := tr.begin(spanCompile, -1, 0, 0)
	c, err := compiled.Compile(set, t)
	tr.end(sp)
	if err != nil {
		return err
	}
	m := t.ComputeMetrics()
	if m.ClassificationTime != served.LookupCost || m.MemoryBytes != served.MemoryBytes || c.Stats().MemoryBytes != served.CompiledBytes {
		return fmt.Errorf("%w: lookup_cost %d vs %d, memory_bytes %d vs %d, compiled_bytes %d vs %d", errNotReproduced,
			m.ClassificationTime, served.LookupCost, m.MemoryBytes, served.MemoryBytes, c.Stats().MemoryBytes, served.CompiledBytes)
	}
	sum := tr.summary()
	rep.set("compiled.compile_ms", float64(sum[spanCompile].total)/1e6, "")
	return nil
}

// saveArtifact persists the engine's compiled classifier into dir; the
// traced run times compiled lookups on it, loaded back as a user would.
func saveArtifact(eng *engine.Engine, dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("artifact-%d.ncaf", os.Getpid()))
	return path, eng.SaveArtifact(path)
}

// compiledSideRun loads the artifact and times compiled.LookupBatch over the
// nb batches batchAt yields, the same packets the traced serve classified.
func compiledSideRun(path string, nb int, batchAt func(i int) []rule.Packet, tr *tracer, rep *report) error {
	c, _, err := compiled.LoadFile(path)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	idx := make([]int32, len(batchAt(0)))
	for i := 0; i < nb; i++ {
		ps := batchAt(i)
		sp := tr.begin(spanCompiledBatch, -1, int64(i), len(ps))
		c.LookupBatch(ps, idx[:len(ps)])
		tr.end(sp)
	}
	rep.set("compiled.lookup_ns_per_pkt", tr.summary()[spanCompiledBatch].perPkt(), fmt.Sprintf("batches=%d", nb))
	rep.set("compiled.worst_case_visits", float64(c.Stats().WorstCaseVisits), "")
	return nil
}

// overlaySampler samples the engine's update overlay once per traced batch.
// A nil *overlaySampler samples nothing.
type overlaySampler struct {
	eng            *engine.Engine
	compactions    uint64 // at the start
	overlay, tombs []float64
}

func newOverlaySampler(eng *engine.Engine) *overlaySampler {
	return &overlaySampler{eng: eng, compactions: eng.UpdaterStats().Compactions}
}

func (s *overlaySampler) sample() {
	if s == nil {
		return
	}
	st := s.eng.UpdaterStats()
	s.overlay = append(s.overlay, float64(st.OverlayRules))
	s.tombs = append(s.tombs, float64(st.Tombstones))
}

// setUpdaterSamples reports the sampled overlay state and the compactions
// since the sampler started.
func (r *report) setUpdaterSamples(s *overlaySampler) {
	note := fmt.Sprintf("mean of %d per-batch samples", len(s.overlay))
	r.set("updater.overlay_rules", mean(s.overlay), note)
	r.set("updater.tombstones", mean(s.tombs), note)
	r.set("updater.compactions", float64(s.eng.UpdaterStats().Compactions-s.compactions), "during the traced serve")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// zeroLayers reports 0 for per-layer metrics of layers the workload does
// not pass through.
func (r *report) zeroLayers(names ...string) {
	for _, n := range names {
		r.set(n, 0, "layer not on this workload's path")
	}
}

// setOverhead reports how much slower the traced serve ran than the
// untraced one, as a percentage of the untraced throughput.
func (r *report) setOverhead(untraced, traced float64) {
	r.set("trace.overhead_pct", 100*(untraced-traced)/untraced,
		fmt.Sprintf("untraced %.4g pkt/s, traced %.4g pkt/s", untraced, traced))
}
