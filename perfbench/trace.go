package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Each is recorded by the benchmark around one call into a
// layer's public API; nothing inside the program is instrumented.
const (
	spanReplayBatch   = "replay.batch"                      // one replay loop iteration
	spanPcapRead      = "iface.PcapReader.ReadBatch"        // child of replay.batch
	spanDataplane     = "dataplane.Dataplane.ClassifyBatch" // child of replay.batch
	spanWireBatch     = "server.ClientV2.ClassifyBatch"     // one closed-loop wire batch
	spanWireInsert    = "server.ClientV2.AddRule"
	spanWireDelete    = "server.ClientV2.DeleteRule"
	spanEngineBatch   = "engine.Engine.ClassifyBatch" // child of a wire batch on wire-updates
	spanEngineInsert  = "engine.Engine.Insert"
	spanEngineDelete  = "engine.Engine.Delete"
	spanCompiledBatch = "compiled.Classifier.LookupBatch"
	spanHiCutsBuild   = "hicuts.Build"
	spanTrain         = "core.Trainer.Train"
	spanSampleTree    = "core.Trainer.SampleTree"
	spanCompile       = "compiled.Compile"
)

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	name   string
	parent int32 // index of the enclosing span, -1 for a root
	req    int64 // request id shared by the spans of one batch or update
	n      int32 // packets the call handled (0 for non-batch calls)
	start  int64
	end    int64
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// wireParent and wireReq name the client span currently waiting on
	// the server, so the server-side wrapper can parent its engine span:
	// the wire workload is one closed-loop connection, so at most one
	// request is in flight.
	wireParent atomic.Int32
	wireReq    atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	t.wireParent.Store(-1)
	return t
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, req int64, n int) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, n: int32(n), start: now})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// len returns how many spans have been recorded.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// truncate drops every span recorded after the first n.
func (t *tracer) truncate(n int) {
	t.mu.Lock()
	t.spans = t.spans[:n]
	t.mu.Unlock()
}

// setWireCtx records sp as the client span now waiting on the server.
func (t *tracer) setWireCtx(sp int32, req int64) {
	if t == nil {
		return
	}
	t.wireReq.Store(req)
	t.wireParent.Store(sp)
}

// wireCtx returns the client span waiting on the server and its request id.
func (t *tracer) wireCtx() (int32, int64) {
	if t == nil {
		return -1, 0
	}
	return t.wireParent.Load(), t.wireReq.Load()
}

// layerTime aggregates every span of one name.
type layerTime struct {
	count int
	n     int64 // packets
	total int64 // ns
	self  int64 // ns not covered by child spans
}

// perPkt is the mean total time per packet in ns.
func (l layerTime) perPkt() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.total) / float64(l.n)
}

// meanUs is the mean span duration in microseconds.
func (l layerTime) meanUs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.total) / float64(l.count) / 1e3
}

// selfMeanUs is the mean self time in microseconds.
func (l layerTime) selfMeanUs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self) / float64(l.count) / 1e3
}

// summary aggregates spans by name. A span's self time is its duration minus
// the part of its interval that its child spans cover.
func (t *tracer) summary() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.name]
		lt.count++
		lt.n += int64(s.n)
		lt.total += s.end - s.start
		lt.self += s.end - s.start - covered(s.start, s.end, children[int32(i)])
		out[s.name] = lt
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write dumps every span as tab-separated values.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tpackets\tstart_ns\tend_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.req, s.name, s.n, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
