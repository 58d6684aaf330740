package perf

import "testing"

// TestGateBounds pins every gate check's bound, at the value the CI gate
// passes: a result just inside the bound passes, one just past it is a
// violation.
func TestGateBounds(t *testing.T) {
	update := func(factor, ratio float64) UpdateSpeedup {
		return UpdateSpeedup{Family: "acl1", Size: 2000, Backend: "hicuts",
			OverlayP50Nanos: 1000, RebuildP50Nanos: 1000 * factor, Factor: factor,
			EmptyLookupNanos: 100, PendingLookupNanos: 100 * ratio, LookupRatio: ratio}
	}
	compiledBatch := func(grouped bool, factor float64) CompiledBatchComparison {
		return CompiledBatchComparison{Family: "ipc1", Size: 10000, Backend: "hicuts", Grouped: grouped,
			ScalarP50Nanos: 1000 * factor, BatchP50Nanos: 1000, Factor: factor}
	}
	telemetry := func(overheadPct, allocsDelta float64) TelemetryOverhead {
		return TelemetryOverhead{Family: "acl1", Size: 10000, Backend: "hicuts",
			OffP50Nanos: 1000, OnP50Nanos: 1000 + 10*overheadPct, OverheadPct: overheadPct,
			OnAllocsPerBatch: allocsDelta, AllocsDelta: allocsDelta,
			HistogramSamples: 384, SlowCaptured: 384}
	}
	realTrace := func(fraction float64) RealTraceResult {
		return RealTraceResult{Family: "acl1", Size: 1000, Backend: "hicuts",
			DirectPacketsPerSec: 1e7, ReplayPacketsPerSec: 1e7 * fraction, ReplayFraction: fraction}
	}

	for _, tc := range []struct {
		name      string
		violation string
		want      bool
	}{
		{"update speedup at 10x", CheckUpdateSpeedup(update(10, 1), 10), false},
		{"update speedup below 10x", CheckUpdateSpeedup(update(9.99, 1), 10), true},
		{"overlay lookup at the ratio bound", CheckOverlayLookup(update(10, MaxOverlayLookupRatio)), false},
		{"overlay lookup past the ratio bound", CheckOverlayLookup(update(10, MaxOverlayLookupRatio+0.01)), true},
		{"proto at 1x", CheckProtoThroughput(ProtoComparison{V1PacketsPerSec: 1e6, V2PacketsPerSec: 1e6, Factor: 1}, 1), false},
		{"proto below 1x", CheckProtoThroughput(ProtoComparison{V1PacketsPerSec: 1e6, V2PacketsPerSec: 0.99e6, Factor: 0.99}, 1), true},
		{"dataplane at 1x", CheckDataplane(DataplaneComparison{PoolP99Nanos: 1000, DataplaneP99Nanos: 1000, Factor: 1}, 1), false},
		{"dataplane below 1x", CheckDataplane(DataplaneComparison{PoolP99Nanos: 990, DataplaneP99Nanos: 1000, Factor: 0.99}, 1), true},
		{"grouped batch at 1x", CheckCompiledBatch(compiledBatch(true, 1), 1), false},
		{"grouped batch below 1x", CheckCompiledBatch(compiledBatch(true, 0.99), 1), true},
		{"scalar fallback at the floor", CheckCompiledBatch(compiledBatch(false, batchFallbackFloor), 1), false},
		{"scalar fallback below the floor", CheckCompiledBatch(compiledBatch(false, batchFallbackFloor-0.01), 1), true},
		{"telemetry at 5%", CheckTelemetry(telemetry(5, 0), 5), false},
		{"telemetry past 5%", CheckTelemetry(telemetry(5.01, 0), 5), true},
		{"telemetry allocating", CheckTelemetry(telemetry(0, 0.01), 5), true},
		{"replay at a quarter of direct", CheckRealTrace(realTrace(0.25), 0.25), false},
		{"replay below a quarter of direct", CheckRealTrace(realTrace(0.249), 0.25), true},
	} {
		if got := tc.violation != ""; got != tc.want {
			t.Errorf("%s: violation %q, want flagged=%v", tc.name, tc.violation, tc.want)
		}
	}
}
