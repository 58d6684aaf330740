package perf

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"neurocuts/internal/engine"
	"neurocuts/internal/iface"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// RealTraceResult is the outcome of the realtrace perf cell: a synthetic
// ClassBench trace rendered as a real pcap capture, then pushed through the
// ingestion layer — decode alone, decode + classify (the classifyd -pcap
// replay loop), and the shared-memory ring transport — with the direct
// in-process classify rate as the ceiling.
type RealTraceResult struct {
	Family  string `json:"family"`
	Size    int    `json:"size"`
	Backend string `json:"backend"`
	// Packets is the trace length per pass; BatchSize the ReadBatch span.
	Packets   int `json:"packets"`
	BatchSize int `json:"batch_size"`
	// PcapBytes is the rendered capture's size.
	PcapBytes int `json:"pcap_bytes"`
	// DirectPacketsPerSec is the in-process ClassifyBatch rate over the
	// pre-decoded keys — the ceiling every ingestion path approaches.
	DirectPacketsPerSec float64 `json:"direct_packets_per_sec"`
	// DecodePacketsPerSec is the pure ingestion rate: pcap parse + Ethernet/
	// IPv4 decode into keys, no classification.
	DecodePacketsPerSec float64 `json:"decode_packets_per_sec"`
	// ReplayPacketsPerSec is the end-to-end replay loop: decode + classify,
	// exactly what classifyd -pcap runs.
	ReplayPacketsPerSec float64 `json:"replay_packets_per_sec"`
	// ShmPacketsPerSec is the batch rate through the shared-memory ring
	// (client submit + server classify + result consume).
	ShmPacketsPerSec float64 `json:"shm_packets_per_sec"`
	// ReplayFraction is ReplayPacketsPerSec / DirectPacketsPerSec: how much
	// of the classify ceiling survives the ingestion layer.
	ReplayFraction float64 `json:"replay_fraction"`
	// Matches is the trace's match count. Every replayed packet's match is
	// cross-checked against the direct path, so a silently corrupted decode
	// cannot post a good number.
	Matches int `json:"matches"`
}

// MeasureRealTrace builds the backend over a generated rule set, renders a
// rule-biased trace as an in-memory pcap capture, and measures the
// ingestion paths (best of runs passes each).
func MeasureRealTrace(family string, size int, backend string, packets, batchSize, runs int, cfg RunConfig) (RealTraceResult, error) {
	cfg = cfg.WithDefaults()
	res := RealTraceResult{Family: family, Size: size, Backend: backend, Packets: packets, BatchSize: batchSize}

	set, keys, err := fixture(family, size, packets, false, cfg)
	if err != nil {
		return res, err
	}
	eng, err := engine.NewEngine(backend, set, engine.Options{Binth: cfg.Binth, Seed: cfg.Seed})
	if err != nil {
		return res, err
	}
	defer eng.Close()

	// The keys every path classifies are the *decoded* ones (canonical wire
	// form), so direct and replay measure the same classification work.
	trace := make([]packet.TraceEntry, len(keys))
	for i, k := range keys {
		trace[i].Key = k
		keys[i] = iface.CanonicalKey(k)
	}
	var pcap bytes.Buffer
	if err := iface.WriteTracePcap(&pcap, trace); err != nil {
		return res, err
	}
	res.PcapBytes = pcap.Len()
	data := pcap.Bytes()

	// Ground truth for the replay cross-check, compact enough to stay
	// cache-resident while replay reads it.
	direct := make([]engine.Result, len(keys))
	eng.ClassifyBatch(keys, direct)
	matched := make([]bool, len(keys))
	for i := range direct {
		if matched[i] = direct[i].OK; matched[i] {
			res.Matches++
		}
	}

	tm := traceTiming(len(keys), batchSize, runs)
	out := make([]engine.Result, batchSize)
	if res.DirectPacketsPerSec, err = tm.rate(func(_, lo, hi int) error {
		eng.ClassifyBatch(keys[lo:hi], out[:hi-lo]) // the ceiling
		return nil
	}); err != nil {
		return res, err
	}

	// Pure decode: the ingestion layer alone; then end-to-end replay,
	// decode + classify, the classifyd -pcap loop. Each pass reads the
	// capture from its start.
	var r *iface.PcapReader
	ps := make([]rule.Packet, batchSize)
	read := tm
	read.beforePass = func() (err error) {
		r, err = iface.NewPcapReader(bytes.NewReader(data), iface.PcapConfig{})
		return err
	}
	readWindow := func(_, lo, hi int) error {
		if n, err := r.ReadBatch(ps[:hi-lo]); n != hi-lo {
			return fmt.Errorf("decoding packets [%d, %d): read %d (%v)", lo, hi, n, err)
		}
		return nil
	}
	if res.DecodePacketsPerSec, err = read.rate(readWindow); err != nil {
		return res, err
	}
	if res.ReplayPacketsPerSec, err = read.rate(func(_, lo, hi int) error {
		if err := readWindow(0, lo, hi); err != nil {
			return err
		}
		eng.ClassifyBatch(ps[:hi-lo], out[:hi-lo])
		for i := range hi - lo {
			if out[i].OK != matched[lo+i] {
				return fmt.Errorf("replay packet %d matched=%v, direct matched=%v", lo+i, out[i].OK, matched[lo+i])
			}
		}
		return nil
	}); err != nil {
		return res, err
	}

	// Shared-memory ring: batches through the descriptor rings.
	dir, err := os.MkdirTemp("", "neurocuts-realtrace-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	srv, err := iface.NewShmServer(filepath.Join(dir, "ring"), eng, iface.ShmServerConfig{})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	cli, err := iface.OpenShmClient(srv.Path(), iface.ShmClientConfig{})
	if err != nil {
		return res, err
	}
	defer cli.Close()
	if res.ShmPacketsPerSec, err = tm.rate(func(_, lo, hi int) error {
		if err := cli.ClassifyBatchInto(keys[lo:hi], out[:hi-lo]); err != nil {
			return fmt.Errorf("shm batch: %w", err)
		}
		return nil
	}); err != nil {
		return res, err
	}

	if res.DirectPacketsPerSec > 0 {
		res.ReplayFraction = res.ReplayPacketsPerSec / res.DirectPacketsPerSec
	}
	return res, nil
}

// CheckRealTrace asserts the ingestion layer's claim: end-to-end pcap
// replay (decode + classify) must retain at least minFraction of the direct
// classify throughput — the decode path is zero-alloc and must never become
// the bottleneck's dominant term. It returns a violation message when the
// fraction falls short.
func CheckRealTrace(r RealTraceResult, minFraction float64) (violation string) {
	if minFraction > 0 && r.ReplayFraction < minFraction {
		return fmt.Sprintf(
			"%s_%d_%s: pcap replay %.0f pps retains only %.2f of the direct %.0f pps (want >= %.2f)",
			r.Family, r.Size, r.Backend, r.ReplayPacketsPerSec, r.ReplayFraction, r.DirectPacketsPerSec, minFraction)
	}
	return ""
}
