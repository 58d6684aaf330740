package perf

import (
	"os"
	"path/filepath"
	"testing"
)

// TestUpdateHeavyCellMeasuresUpdateLatency: updateheavy cells run against an
// overlay-enabled engine and report update-latency percentiles.
func TestUpdateHeavyCellMeasuresUpdateLatency(t *testing.T) {
	cell := Cell{Family: "acl1", Size: 100, Skew: SkewUniform, Churn: ChurnHeavy, Backend: "tss"}
	res, err := MeasureCell(cell, RunConfig{Seed: 1, Packets: 256, Ops: 3000, Warmup: 50,
		Flows: 16, ZipfSkew: 1.2, BatchSize: 64, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Updates == 0 {
		t.Error("updateheavy cell applied no updates")
	}
	if res.Metrics.UpdateP50Nanos <= 0 || res.Metrics.UpdateP99Nanos < res.Metrics.UpdateP50Nanos {
		t.Errorf("update percentiles p50=%.0f p99=%.0f", res.Metrics.UpdateP50Nanos, res.Metrics.UpdateP99Nanos)
	}
	if res.Cell.Name() != "acl1_100_uniform_updateheavy_tss" {
		t.Errorf("cell name %q", res.Cell.Name())
	}
	// Canonical strips the timing fields so golden diffs stay stable.
	canon := Report{SchemaVersion: SchemaVersion, Cells: []CellResult{res}}.Canonical()
	if m := canon.Cells[0].Metrics; m.UpdateP50Nanos != 0 || m.UpdateP99Nanos != 0 {
		t.Errorf("Canonical kept update percentiles: %+v", m)
	}
}

// TestChurnCellMeasuresUpdateLatency: plain churn cells also report update
// percentiles (of the rebuild path) in schema v2.
func TestChurnCellMeasuresUpdateLatency(t *testing.T) {
	cell := Cell{Family: "acl1", Size: 100, Skew: SkewUniform, Churn: ChurnUpdates, Backend: "linear"}
	res, err := MeasureCell(cell, RunConfig{Seed: 1, Packets: 256, Ops: 3000, Warmup: 50,
		Flows: 16, ZipfSkew: 1.2, BatchSize: 64, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.UpdateP50Nanos <= 0 {
		t.Errorf("churn cell update p50 = %.0f, want > 0", res.Metrics.UpdateP50Nanos)
	}
}

// TestReadArtifactAcceptsV1: schema-v1 reports (no update-latency fields)
// stay readable, and Compare against them does not fabricate update-metric
// regressions.
func TestReadArtifactAcceptsV1(t *testing.T) {
	v1 := `{
  "schema_version": 1,
  "tool": "perflab",
  "grid": {"families": ["acl1"], "sizes": [100], "skews": ["uniform"], "churns": ["churn"], "backends": ["linear"]},
  "config": {"seed": 1, "packets": 256, "ops": 1000, "runs": 1, "warmup": 50, "flows": 16,
             "zipf_skew": 1.2, "batch_size": 64, "shards": 1, "flow_cache_entries": 0, "binth": 0},
  "cells": [{
    "cell": {"family": "acl1", "size": 100, "skew": "uniform", "churn": "churn", "backend": "linear"},
    "metrics": {"build_nanos": 1000, "p50_nanos": 100, "p99_nanos": 500, "throughput_pps": 1e6,
                "allocs_per_op": 0, "memory_bytes": 9600, "lookup_cost": 100, "entries": 100,
                "rules": 100, "updates": 10, "cache_hit_rate": 0}
  }]
}`
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := ReadArtifact(path)
	if err != nil {
		t.Fatalf("v1 report rejected: %v", err)
	}
	if old.Cells[0].Metrics.UpdateP50Nanos != 0 {
		t.Fatal("v1 report grew update metrics from nowhere")
	}

	// A v2 candidate for the same cell, now with update metrics: no update
	// regression may be flagged (the baseline has no update data), while the
	// ordinary metrics still compare.
	cand := old
	cand.SchemaVersion = SchemaVersion
	cand.Cells = []CellResult{old.Cells[0]}
	cand.Cells[0].Metrics.UpdateP50Nanos = 50000
	cand.Cells[0].Metrics.UpdateP99Nanos = 90000
	cmp := Compare(old, cand, DefaultThresholds())
	if !cmp.OK() {
		t.Fatalf("v1-vs-v2 comparison regressed: %+v", cmp.Regressions())
	}
	for _, d := range cmp.Deltas {
		if d.Metric == "update_p50_ns" && d.Regression {
			t.Fatalf("update metric flagged against v1 baseline: %+v", d)
		}
	}
}

// TestCompareFlagsUpdateLatencyRegression: with a v2 baseline carrying
// update metrics, a large update-latency increase is a regression.
func TestCompareFlagsUpdateLatencyRegression(t *testing.T) {
	base := Report{SchemaVersion: SchemaVersion, Cells: []CellResult{{
		Cell: Cell{Family: "acl1", Size: 100, Skew: SkewUniform, Churn: ChurnHeavy, Backend: "tss"},
		Metrics: CellMetrics{P50Nanos: 100, P99Nanos: 400, ThroughputPPS: 1e6, MemoryBytes: 1000,
			UpdateP50Nanos: 10000, UpdateP99Nanos: 40000},
	}}}
	cand := base
	cand.Cells = []CellResult{base.Cells[0]}
	cand.Cells[0].Metrics.UpdateP50Nanos = 200000 // 20x: beyond 25% * churn slack 3
	cmp := Compare(base, cand, DefaultThresholds())
	found := false
	for _, d := range cmp.Regressions() {
		if d.Metric == "update_p50_ns" {
			found = true
		}
	}
	if !found {
		t.Fatalf("20x update p50 not flagged: %+v", cmp.Deltas)
	}
}

// TestMeasureUpdateSpeedup: the overlay write path must beat
// rebuild-per-update on a tree backend. The unit test asserts a modest 3x
// so it stays robust on loaded machines; the CI gate runs the full 10x via
// `perflab checkupdates`.
func TestMeasureUpdateSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := MeasureUpdateSpeedup("acl1", 800, "hicuts", 60, RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckUpdateSpeedup(res, 3); v != "" {
		t.Fatalf("speedup check failed: %s", v)
	}
	if v := CheckUpdateSpeedup(res, res.Factor*2); v == "" {
		t.Fatal("unattainable factor not flagged")
	}
	if res.EmptyLookupNanos <= 0 || res.PendingLookupNanos <= 0 || res.LookupRatio <= 0 {
		t.Fatalf("overlay lookup not measured: %+v", res)
	}
}

// TestCheckOverlayLookup: the full-overlay lookup bound flags ratios above
// MaxOverlayLookupRatio and passes those at or below it.
func TestCheckOverlayLookup(t *testing.T) {
	for _, tc := range []struct {
		ratio float64
		flag  bool
	}{{1, false}, {MaxOverlayLookupRatio, false}, {MaxOverlayLookupRatio + 0.5, true}, {250, true}} {
		r := UpdateSpeedup{Family: "acl1", Size: 2000, Backend: "hicuts",
			EmptyLookupNanos: 100, PendingLookupNanos: 100 * tc.ratio, LookupRatio: tc.ratio}
		if v := CheckOverlayLookup(r); (v != "") != tc.flag {
			t.Errorf("ratio %.1f: violation %q, want flagged=%v", tc.ratio, v, tc.flag)
		}
	}
}
