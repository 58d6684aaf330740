package perf

import (
	"context"
	"fmt"
	"time"

	"neurocuts/internal/engine"
	"neurocuts/internal/server"
)

// ProtoComparison is the outcome of the wire-protocol perf cell: the same
// batched lookup workload pushed through the v1 text protocol and the v2
// binary protocol against one in-process server, plus the direct in-process
// engine rate as the ceiling both protocols approach.
type ProtoComparison struct {
	Family  string `json:"family"`
	Size    int    `json:"size"`
	Backend string `json:"backend"`
	// Packets is the trace length pushed through each path per pass;
	// BatchSize is the packets per batch request.
	Packets   int `json:"packets"`
	BatchSize int `json:"batch_size"`
	// V1PacketsPerSec and V2PacketsPerSec are each path's best-of-N
	// end-to-end batch throughput (request encode + server parse + classify
	// + response decode, over loopback TCP).
	V1PacketsPerSec float64 `json:"v1_packets_per_sec"`
	V2PacketsPerSec float64 `json:"v2_packets_per_sec"`
	// EnginePacketsPerSec is the in-process ClassifyBatch rate with no wire
	// protocol at all.
	EnginePacketsPerSec float64 `json:"engine_packets_per_sec"`
	// Factor is V2PacketsPerSec / V1PacketsPerSec.
	Factor float64 `json:"factor"`
}

// MeasureProtoThroughput builds the backend over a generated rule set,
// serves it on a loopback listener, and measures batched lookup throughput
// through both wire protocols (best of runs passes each) and directly
// in-process.
func MeasureProtoThroughput(family string, size int, backend string, packets, batchSize, runs int, cfg RunConfig) (ProtoComparison, error) {
	cfg = cfg.WithDefaults()
	batchSize = min(batchSize, server.MaxBatch)
	res := ProtoComparison{Family: family, Size: size, Backend: backend, Packets: packets, BatchSize: batchSize}

	set, keys, err := fixture(family, size, packets, false, cfg)
	if err != nil {
		return res, err
	}
	eng, err := engine.NewEngine(backend, set, engine.Options{Binth: cfg.Binth, Seed: cfg.Seed})
	if err != nil {
		return res, err
	}
	defer eng.Close()

	srv := server.New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	v1, err := server.Dial(ctx, addr.String())
	if err != nil {
		return res, err
	}
	defer v1.Close()
	v2, err := server.DialV2(ctx, addr.String())
	if err != nil {
		return res, err
	}
	defer v2.Close()

	tm := traceTiming(len(keys), batchSize, runs)
	out := make([]engine.Result, batchSize)
	if res.EnginePacketsPerSec, err = tm.rate(func(_, lo, hi int) error {
		eng.ClassifyBatch(keys[lo:hi], out[:hi-lo]) // the in-process ceiling
		return nil
	}); err != nil {
		return res, err
	}
	if res.V1PacketsPerSec, err = tm.rate(func(_, lo, hi int) error {
		if _, err := v1.ClassifyBatch(keys[lo:hi]); err != nil {
			return fmt.Errorf("v1 batch: %w", err)
		}
		return nil
	}); err != nil {
		return res, err
	}
	if res.V2PacketsPerSec, err = tm.rate(func(_, lo, hi int) error {
		if _, err := v2.ClassifyBatch(keys[lo:hi]); err != nil {
			return fmt.Errorf("v2 batch: %w", err)
		}
		return nil
	}); err != nil {
		return res, err
	}

	if res.V1PacketsPerSec > 0 {
		res.Factor = res.V2PacketsPerSec / res.V1PacketsPerSec
	}
	return res, nil
}

// CheckProtoThroughput asserts the v2 protocol's headline claim: batched
// lookups through v2 must reach at least minFactor times the v1 text
// protocol's throughput. It returns a violation message when they do not.
func CheckProtoThroughput(r ProtoComparison, minFactor float64) (violation string) {
	if minFactor > 0 && r.Factor < minFactor {
		return fmt.Sprintf(
			"%s_%d_%s: v2 batch throughput %.0f pps is only %.2fx of v1's %.0f pps (want >= %.2fx)",
			r.Family, r.Size, r.Backend, r.V2PacketsPerSec, r.Factor, r.V1PacketsPerSec, minFactor)
	}
	return ""
}
