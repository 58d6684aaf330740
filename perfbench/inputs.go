package main

import (
	"math/rand"

	"neurocuts/internal/classbench"
	"neurocuts/internal/packet"
	"neurocuts/internal/rule"
)

// Rule sets are fixed per workload: acl1 from the generator's seed 1, the
// repository's default everywhere, and so are the rules the update schedules
// insert. --seed derives the traffic, the pcap and the update positions.
// Tree shape (lookup_cost, memory_bytes) moves by 10-25% between generator
// seeds at 10k rules, and the overlay's probe cost by as much between draws
// of the inserted rules, which would swamp the run-to-run spread the bounds
// are set against.
const (
	family   = "acl1"
	ruleSeed = 1
)

// ruleSet generates the workload's rule set.
func ruleSet(size int) (*rule.Set, error) {
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		return nil, err
	}
	return classbench.Generate(fam, size, ruleSeed), nil
}

// subSeed derives an independent stream seed for input k from the run seed.
func subSeed(seed int64, k int64) int64 { return seed*1_000_003 + k }

// Input streams, each drawn from its own generator seed.
const (
	streamTraffic = iota + 1
	streamUpdateRules
	streamUpdatePositions
)

// updateRules returns n rules of the workload's family, for insertion. They
// come from an independent generator draw, so they overlap the served rules
// the way new policy entries would.
func updateRules(n int) ([]rule.Rule, error) {
	fam, err := classbench.FamilyByName(family)
	if err != nil {
		return nil, err
	}
	rs := classbench.Generate(fam, n+1, subSeed(ruleSeed, streamUpdateRules)).Rules()
	return rs[:len(rs)-1], nil // drop the generator's catch-all default
}

// tracePool is a fixed pool of rule-biased packets with each packet's
// expected rule ID, served in batches cycled in order.
type tracePool struct {
	ps   []rule.Packet
	want []int32 // expected rule ID per packet
}

// newTracePool draws n packets with classbench.GenerateTrace and keeps the
// ground truth it computes by linear search.
func newTracePool(set *rule.Set, n int, seed int64) tracePool {
	return poolFromTrace(set, classbench.GenerateTrace(set, n, subSeed(seed, streamTraffic)))
}

func poolFromTrace(set *rule.Set, tr []packet.TraceEntry) tracePool {
	p := tracePool{ps: make([]rule.Packet, len(tr)), want: make([]int32, len(tr))}
	for i, e := range tr {
		p.ps[i] = e.Key
		p.want[i] = int32(set.Rule(e.MatchRule).ID)
	}
	return p
}

// batch returns the i-th batch of size bs, wrapping around the pool.
func (p tracePool) batch(i, bs int) ([]rule.Packet, []int32) {
	nb := len(p.ps) / bs
	lo := (i % nb) * bs
	return p.ps[lo : lo+bs], p.want[lo : lo+bs]
}

// positions returns a deterministic stream of insert positions.
func positions(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, streamUpdatePositions)))
}
