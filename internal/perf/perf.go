// Package perf is the repository's perf lab: a reproducible scenario-matrix
// benchmark runner with machine-readable results.
//
// The paper's evaluation — and this repo's regression story — is a grid of
// workloads: ClassBench family x rule-set size x traffic skew x update churn
// x backend. perf expands such a declarative Grid into cells, measures each
// cell (build time, p50/p99 lookup latency, throughput, memory, allocations
// per op) and packages the results as a schema-versioned Report that
// marshals to JSON. Compare diffs two reports with configurable regression
// thresholds; cmd/perflab and the CI bench gate are thin shells over this
// package, and internal/bench renders its text tables from the same data.
//
// Beside the grid, each CI gate cell is a Measure*/Check* pair. The cells
// build their workloads with one fixture and time them with one timing
// core (timing.go); each keeps the statistic its gate bounds.
//
// Determinism: rule sets, traces and therefore every structural metric
// (rules, memory, lookup cost, entries) are pure functions of the seed.
// Timing fields (build/latency/throughput) vary run to run and machine to
// machine; Canonical zeroes them so reports can be diffed and golden-tested.
package perf

import (
	"fmt"
	"sort"

	"neurocuts/internal/engine"
)

// SchemaVersion identifies the Report JSON schema. Bump on any
// backwards-incompatible field change; ReadArtifact refuses versions it
// does not know how to read (older versions it can upgrade in place are
// accepted — see MinReadSchemaVersion).
//
// v2 added update_p50_ns / update_p99_ns (update-path latency percentiles)
// and the "updateheavy" churn mode. v1 reports parse cleanly with those
// fields zero, so they remain readable.
const SchemaVersion = 2

// MinReadSchemaVersion is the oldest report schema ReadArtifact still
// accepts. v1 reports lack the update-latency fields; Compare skips metrics
// whose baseline value is absent (zero), so comparisons against v1
// baselines stay meaningful.
const MinReadSchemaVersion = 1

// Skew selects the traffic model of a cell.
type Skew string

const (
	// SkewUniform draws packets uniformly from the whole header space.
	SkewUniform Skew = "uniform"
	// SkewZipf draws packets from a fixed flow population with
	// Zipf-distributed popularity (few flows carry most packets).
	SkewZipf Skew = "zipf"
)

// Churn selects the update model of a cell.
type Churn string

const (
	// ChurnNone measures a read-only classifier.
	ChurnNone Churn = "readonly"
	// ChurnUpdates measures lookups while a writer continuously inserts and
	// deletes rules through the engine's rebuild-per-update snapshot swap.
	ChurnUpdates Churn = "churn"
	// ChurnHeavy measures an update-heavy workload against an engine with
	// the delta-overlay update subsystem enabled: the writer churns with
	// minimal pacing and updates flow through the overlay write path rather
	// than a rebuild. Update latency percentiles (update_p50_ns /
	// update_p99_ns) are first-class metrics of these cells.
	ChurnHeavy Churn = "updateheavy"
)

// Grid is the declarative scenario matrix: its cells are the cross product
// of all five axes.
type Grid struct {
	Families []string `json:"families"`
	Sizes    []int    `json:"sizes"`
	Skews    []Skew   `json:"skews"`
	Churns   []Churn  `json:"churns"`
	Backends []string `json:"backends"`
}

// Cells expands the grid into the full cross product, in deterministic
// (family, size, skew, churn, backend) order.
func (g Grid) Cells() []Cell {
	var out []Cell
	for _, f := range g.Families {
		for _, s := range g.Sizes {
			for _, sk := range g.Skews {
				for _, ch := range g.Churns {
					for _, b := range g.Backends {
						out = append(out, Cell{Family: f, Size: s, Skew: sk, Churn: ch, Backend: b})
					}
				}
			}
		}
	}
	return out
}

// Cell identifies one point of the scenario matrix.
type Cell struct {
	Family  string `json:"family"`
	Size    int    `json:"size"`
	Skew    Skew   `json:"skew"`
	Churn   Churn  `json:"churn"`
	Backend string `json:"backend"`
}

// Name returns the scenario's canonical name, e.g. "acl1_1k_zipf_churn_tss".
// It is the key Compare matches cells on and the stem of per-cell artifact
// files.
func (c Cell) Name() string {
	size := fmt.Sprintf("%d", c.Size)
	if c.Size >= 1000 && c.Size%1000 == 0 {
		size = fmt.Sprintf("%dk", c.Size/1000)
	}
	return fmt.Sprintf("%s_%s_%s_%s_%s", c.Family, size, c.Skew, c.Churn, c.Backend)
}

// CellMetrics is the measurement of one cell. Structural fields (Rules,
// MemoryBytes, LookupCost, Entries) are deterministic given the seed; the
// rest are wall-clock measurements.
type CellMetrics struct {
	// BuildNanos is the wall-clock time to construct the backend.
	BuildNanos int64 `json:"build_nanos"`
	// P50Nanos / P99Nanos are single-packet lookup latency percentiles.
	P50Nanos float64 `json:"p50_nanos"`
	P99Nanos float64 `json:"p99_nanos"`
	// ThroughputPPS is batched-lookup throughput in packets per second.
	ThroughputPPS float64 `json:"throughput_pps"`
	// AllocsPerOp is heap allocations per single-packet lookup, measured on
	// the read-only path (before any churn writer starts).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MemoryBytes is the backend's modelled memory footprint.
	MemoryBytes int `json:"memory_bytes"`
	// LookupCost is the backend's worst-case sequential lookup cost.
	LookupCost int `json:"lookup_cost"`
	// Entries is the number of stored elements after expansion/replication.
	Entries int `json:"entries"`
	// Rules is the classifier size.
	Rules int `json:"rules"`
	// Updates is the number of rule updates applied by the churn writer
	// during measurement (0 for readonly cells).
	Updates int `json:"updates"`
	// UpdateP50Nanos / UpdateP99Nanos are update-path latency percentiles
	// (one sample per Insert or Delete call), 0 for readonly cells and in
	// schema-v1 reports. Added in schema v2.
	UpdateP50Nanos float64 `json:"update_p50_ns,omitempty"`
	UpdateP99Nanos float64 `json:"update_p99_ns,omitempty"`
	// CacheHitRate is the flow-cache hit fraction in [0,1], or 0 when the
	// cache is disabled.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// CellResult pairs a cell with its measurement.
type CellResult struct {
	Cell    Cell        `json:"cell"`
	Metrics CellMetrics `json:"metrics"`
}

// RunConfig fixes everything about a run that is not a grid axis, so two
// runs with equal configs are comparable.
type RunConfig struct {
	// Seed drives rule generation, traces and churn, making structural
	// results reproducible.
	Seed int64 `json:"seed"`
	// Packets is the trace length per cell.
	Packets int `json:"packets"`
	// Ops is the number of measured lookups per cell (latency, allocation
	// and throughput loops each run Ops lookups).
	Ops int `json:"ops"`
	// Runs is the number of measurement passes per cell; the reported
	// latency is the per-percentile minimum and the throughput the maximum
	// across passes. Taking the best-of-N filters one-sided scheduler and
	// interference noise, which is what a regression gate needs — a real
	// regression slows every pass. 0 selects 1.
	Runs int `json:"runs"`
	// Warmup is the number of unmeasured lookups before measurement.
	Warmup int `json:"warmup"`
	// Flows is the Zipf flow-population size for SkewZipf cells.
	Flows int `json:"flows"`
	// ZipfSkew is the Zipf s parameter (>1) for SkewZipf cells.
	ZipfSkew float64 `json:"zipf_skew"`
	// BatchSize is the ClassifyBatch size of the throughput loop.
	BatchSize int `json:"batch_size"`
	// Shards is the engine shard count (0 = GOMAXPROCS).
	Shards int `json:"shards"`
	// FlowCacheEntries enables the engine flow cache when > 0.
	FlowCacheEntries int `json:"flow_cache_entries"`
	// Binth is the leaf threshold for tree backends (0 = default).
	Binth int `json:"binth"`
	// OnEngine, when set, receives each cell's engine right after it is
	// built, before measurement — the hook perflab's -admin plane uses to
	// expose the engine currently under measurement. It is an observer, not
	// part of the comparable configuration, so it stays out of the JSON
	// artifact.
	OnEngine func(cellName string, eng *engine.Engine) `json:"-"`
}

// WithDefaults fills zero fields with CI-friendly defaults.
func (c RunConfig) WithDefaults() RunConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Packets <= 0 {
		c.Packets = 4096
	}
	if c.Ops <= 0 {
		c.Ops = 20000
	}
	if c.Warmup <= 0 {
		c.Warmup = 2000
	}
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.Flows <= 0 {
		c.Flows = 256
	}
	if c.ZipfSkew <= 1 {
		c.ZipfSkew = 1.2
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	return c
}

// Report is the versioned artifact of one perf run.
type Report struct {
	SchemaVersion int          `json:"schema_version"`
	Tool          string       `json:"tool"`
	Grid          Grid         `json:"grid"`
	Config        RunConfig    `json:"config"`
	Cells         []CellResult `json:"cells"`
}

// Canonical returns a copy of the report with every machine- and run-varying
// field zeroed, leaving only the fields that are pure functions of the seed.
// Canonical output is what golden tests and textual diffs should compare.
func (r Report) Canonical() Report {
	out := r
	out.Cells = make([]CellResult, len(r.Cells))
	copy(out.Cells, r.Cells)
	for i := range out.Cells {
		m := &out.Cells[i].Metrics
		m.BuildNanos = 0
		m.P50Nanos = 0
		m.P99Nanos = 0
		m.ThroughputPPS = 0
		m.AllocsPerOp = 0
		m.Updates = 0
		m.UpdateP50Nanos = 0
		m.UpdateP99Nanos = 0
		m.CacheHitRate = 0
	}
	return out
}

// CellByName returns the named cell's result.
func (r Report) CellByName(name string) (CellResult, bool) {
	for _, c := range r.Cells {
		if c.Cell.Name() == name {
			return c, true
		}
	}
	return CellResult{}, false
}

// SortCells orders the report's cells by canonical name, the order Compare
// and the renderers expect.
func (r *Report) SortCells() {
	sort.Slice(r.Cells, func(i, j int) bool {
		return r.Cells[i].Cell.Name() < r.Cells[j].Cell.Name()
	})
}

// CIGrid returns the pinned scenario grid the CI bench gate runs: 3 families
// x 1 size x 2 skews x 3 churn modes (including the update-heavy overlay
// cells) x 2 allocation-free backends = 36 cells, small enough to finish in
// seconds yet covering every axis.
func CIGrid() Grid {
	return Grid{
		Families: []string{"acl1", "fw1", "ipc1"},
		Sizes:    []int{300},
		Skews:    []Skew{SkewUniform, SkewZipf},
		Churns:   []Churn{ChurnNone, ChurnUpdates, ChurnHeavy},
		Backends: []string{"linear", "tss"},
	}
}

// CIConfig returns the pinned run configuration of the CI bench gate.
func CIConfig() RunConfig {
	return RunConfig{Seed: 1, Packets: 2048, Ops: 10000, Warmup: 1000, Runs: 3,
		Flows: 128, ZipfSkew: 1.2, BatchSize: 256, Shards: 2}.WithDefaults()
}
