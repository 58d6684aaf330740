// Package tcam models a Ternary Content-Addressable Memory classifier — the
// hardware alternative the paper's introduction contrasts with algorithmic,
// decision-tree-based classification. The model captures the properties that
// drive the comparison: constant lookup time (every entry is matched in
// parallel), entry expansion caused by range fields (a TCAM entry is a
// value/mask pair, so arbitrary port ranges must be decomposed into
// prefixes), and the resulting bit count, which is what makes large TCAM
// classifiers expensive and power-hungry.
//
// The simulator performs the parallel match in software (a scan over all
// entries) purely to verify correctness; its cost metrics — entries, bits
// and modelled power — are the quantities a hardware evaluation would
// report.
package tcam

import (
	"fmt"

	"neurocuts/internal/rule"
)

// EntryBits is the width of one TCAM entry for the 5-tuple: 32+32+16+16+8
// value bits, and the same again for the mask.
const EntryBits = 2 * (32 + 32 + 16 + 16 + 8)

// NanowattsPerBit is a rough per-bit static power figure used for the power
// model (order of magnitude from published TCAM characterisations; the
// absolute value only matters for relative comparisons).
const NanowattsPerBit = 30.0

// entry is one value/mask row of the TCAM.
type entry struct {
	value    [rule.NumDims]uint64
	mask     [rule.NumDims]uint64
	priority int
	r        rule.Rule
}

// Classifier is a simulated TCAM.
type Classifier struct {
	entries   []entry
	ruleCount int
}

// DefaultExpandLimit is the per-rule entry budget of range expansion that
// Build applies when given a non-positive limit.
const DefaultExpandLimit = 1024

// Build programs the TCAM with the classifier, expanding range fields into
// prefixes. Rules whose expansion would exceed expandLimit entries are
// rejected (as real TCAM compilers do); expandLimit <= 0 selects
// DefaultExpandLimit.
func Build(s *rule.Set, expandLimit int) (*Classifier, error) {
	if expandLimit <= 0 {
		expandLimit = DefaultExpandLimit
	}
	c := &Classifier{}
	for _, r := range s.Rules() {
		rows, err := expandToEntries(r, expandLimit)
		if err != nil {
			return nil, fmt.Errorf("tcam: rule %d: %w", r.Priority, err)
		}
		c.entries = append(c.entries, rows...)
		c.ruleCount++
	}
	return c, nil
}

// Classify simulates the parallel match: every entry is compared and the
// highest-priority hit wins. In hardware this is a single-cycle operation;
// LookupTime below reports that constant cost.
func (c *Classifier) Classify(p rule.Packet) (rule.Rule, bool) {
	var best rule.Rule
	found := false
	for i := range c.entries {
		e := &c.entries[i]
		hit := true
		for _, d := range rule.Dimensions() {
			if (p.Field(d) & e.mask[d]) != e.value[d] {
				hit = false
				break
			}
		}
		if hit && (!found || e.priority < best.Priority) {
			best = e.r
			found = true
		}
	}
	return best, found
}

// Metrics describes the TCAM cost profile.
type Metrics struct {
	// Entries is the number of TCAM rows after range expansion.
	Entries int
	// ExpansionFactor is Entries divided by the number of rules.
	ExpansionFactor float64
	// Bits is the total ternary bit count (Entries * EntryBits).
	Bits int
	// PowerMilliwatts is the modelled static power draw.
	PowerMilliwatts float64
	// LookupTime is the constant number of sequential steps per lookup (1).
	LookupTime int
}

// Metrics computes the TCAM's cost metrics.
func (c *Classifier) Metrics() Metrics {
	m := Metrics{Entries: len(c.entries), LookupTime: 1}
	if c.ruleCount > 0 {
		m.ExpansionFactor = float64(len(c.entries)) / float64(c.ruleCount)
	}
	m.Bits = m.Entries * EntryBits
	m.PowerMilliwatts = float64(m.Bits) * NanowattsPerBit / 1e6
	return m
}

// expandToEntries converts one rule into TCAM rows: prefix dimensions map
// directly to value/mask pairs and range dimensions are decomposed into
// covering prefixes, taking the cross product.
func expandToEntries(r rule.Rule, limit int) ([]entry, error) {
	type vm struct{ value, mask uint64 }
	perDim := make([][]vm, rule.NumDims)
	total := 1
	for _, d := range rule.Dimensions() {
		var options []vm
		bits := d.Bits()
		rg := r.Ranges[d]
		if plen, ok := rg.PrefixLen(bits); ok {
			options = append(options, vm{value: rg.Lo, mask: prefixMask(plen, bits)})
		} else {
			for _, p := range rangeToPrefixes(rg, bits) {
				options = append(options, vm{value: p.val, mask: prefixMask(p.len, bits)})
			}
		}
		perDim[d] = options
		total *= len(options)
		if total > limit {
			return nil, fmt.Errorf("expansion exceeds %d entries", limit)
		}
	}
	out := make([]entry, 0, total)
	idx := make([]int, rule.NumDims)
	for {
		var e entry
		e.priority = r.Priority
		e.r = r
		for _, d := range rule.Dimensions() {
			opt := perDim[d][idx[d]]
			e.value[d] = opt.value & opt.mask
			e.mask[d] = opt.mask
		}
		out = append(out, e)
		i := rule.NumDims - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(perDim[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out, nil
}

func prefixMask(prefixLen, bits uint) uint64 {
	if prefixLen == 0 {
		return 0
	}
	if prefixLen > bits {
		prefixLen = bits
	}
	full := (uint64(1) << bits) - 1
	return full &^ ((uint64(1) << (bits - prefixLen)) - 1)
}

type prefix struct {
	len uint
	val uint64
}

// rangeToPrefixes decomposes an inclusive range into covering prefixes.
func rangeToPrefixes(r rule.Range, bits uint) []prefix {
	var out []prefix
	lo, hi := r.Lo, r.Hi
	maxVal := (uint64(1) << bits) - 1
	if hi > maxVal {
		hi = maxVal
	}
	for lo <= hi {
		size := uint64(1)
		plen := bits
		for plen > 0 {
			next := size << 1
			if lo%next != 0 || lo+next-1 > hi {
				break
			}
			size = next
			plen--
		}
		out = append(out, prefix{len: plen, val: lo})
		if lo+size-1 == maxVal {
			break
		}
		lo += size
	}
	return out
}
