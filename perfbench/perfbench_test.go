package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neurocuts/internal/classbench"
	"neurocuts/internal/engine"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestShortRuns runs every workload briefly in both modes through the
// command line and checks the result line: every metric of the mode is
// present with its unit, nothing failed, and the end-to-end metrics are
// never 0.
func TestShortRuns(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.4", "--trace", trace, "--workdir", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", m.Name, got.Value)
					}
				}
				if trace == "1" && res.Metrics["error_rate"].Value != 0 {
					t.Errorf("error_rate %v", res.Metrics["error_rate"].Value)
				}
			})
		}
	}
}

// wrongRule is a serving surface that returns a wrong rule for the first
// packet of every batch.
type wrongRule struct {
	serving
	corrupted atomic.Int64
}

func (w *wrongRule) ClassifyBatch(ps []rule.Packet, out []engine.Result) {
	w.serving.ClassifyBatch(ps, out)
	out[0].Rule.ID++
	w.corrupted.Add(1)
}

// TestWrongRulesAreCounted shows the checkers are not vacuous: every wrong
// rule a faulty serving surface returns is counted as failed.
func TestWrongRulesAreCounted(t *testing.T) {
	for _, name := range []string{"replay-zipf", "wire-updates"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			var bad *wrongRule
			cfg := config{seed: 3, seconds: 300 * time.Millisecond, workdir: t.TempDir(),
				wrap: func(s serving) serving { bad = &wrongRule{serving: s}; return bad }}
			rep, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rep.result(false)
			if err != nil {
				t.Fatal(err)
			}
			n := bad.corrupted.Load()
			if n == 0 || res.Failed != n || res.Correct {
				t.Fatalf("corrupted %d results, run reported failed=%d correct=%v", n, res.Failed, res.Correct)
			}
		})
	}
}

// TestLiveOracleMatchesSetMatch pins the wire workload's checker to
// Set.Match on the live rule list through a random schedule of inserts and
// deletes of inserted rules.
func TestLiveOracleMatchesSetMatch(t *testing.T) {
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		t.Fatal(err)
	}
	base := classbench.Generate(fam, 300, 5)
	extra := classbench.Generate(fam, 60, 6).Rules()
	// Packets from the base rules, and packets inside the inserted rules so
	// that those often win.
	trace := classbench.GenerateTrace(base, 100, 7)
	for _, r := range extra {
		p := cornerPacket(r)
		trace = append(trace, packet.TraceEntry{Key: p, MatchRule: base.MatchIndex(p)})
	}
	rng := rand.New(rand.NewSource(8))
	live := base.Clone()
	var inserted []int
	var o liveOracle
	nextID := base.Len()
	for step := 0; step < 200; step++ {
		if len(inserted) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(inserted))
			for i, r := range live.Rules() {
				if r.ID == inserted[k] {
					live.Remove(i)
					break
				}
			}
			inserted = append(inserted[:k], inserted[k+1:]...)
		} else {
			r := extra[rng.Intn(len(extra))]
			r.ID = nextID
			nextID++
			live.Insert(rng.Intn(live.Len()+1), r)
			inserted = append(inserted, r.ID)
		}
		o.rebuild(live, base.Len())
		for _, e := range trace {
			want, _ := live.Match(e.Key)
			if got := o.match(e.Key, e.MatchRule); got != want.ID {
				t.Fatalf("step %d: oracle says rule %d, Set.Match says %d", step, got, want.ID)
			}
		}
	}
}
