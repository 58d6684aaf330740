// Package updater makes rule updates cheap: instead of rebuilding a
// classifier on every Insert/Delete (the engine's original write path —
// O(full build + compile) per rule), updates land in a small delta overlay
// on top of an immutable base classifier.
//
// The split is the classic base+delta design used around build-once tree
// structures:
//
//   - Inserts go into the overlay: the pending rules kept in priority order
//     (no tree rebuild, no per-rule index structure).
//   - Deletes of base rules become tombstones; deletes of overlay rules
//     simply leave the overlay.
//   - A merged lookup takes the base winner first, checking it against the
//     tombstones (only a deleted winner makes the lookup rescan the base
//     list, see LookupFunc for why that cannot be pushed into the base
//     structure), then scans the overlay and stops at the first match or
//     at the base winner's priority. It stays allocation-free.
//
// A rule's rank is its index in the merged (logical) rule list. Each View
// is derived from the previous one: View.Insert and View.Delete shift the
// base rules' ranks (one pass over an int32 array), copy the small overlay
// and mark tombstones, so an update never copies or renumbers the rule
// list itself. The merged list is only built when someone asks for it
// (View.Merged, once per View). Online updates and journal replay (Replay)
// fold their ops through the same two methods; NewView derives a View from
// a whole merged list and serves the rebase after a compaction.
//
// Views are immutable: the engine publishes each new View through its
// RCU snapshot machinery, so concurrent readers never see a torn update and
// never block. A background compactor (driven by the engine) periodically
// rebuilds the base from the merged list and rebases the overlay, bounding
// overlay size and restoring base lookup speed.
//
// The package also provides the durable update journal (journal.go): a
// length-prefixed, CRC-checked write-ahead log of updates that, replayed
// over a saved artifact, gives crash-consistent warm starts.
package updater

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"neurocuts/internal/rule"
)

// ErrUnknownRule is wrapped by View.Delete when no live rule carries the
// requested ID.
var ErrUnknownRule = errors.New("no live rule with that id")

// LookupFunc is a base classifier's single-packet lookup. The returned
// rule's Priority must be its index in the base rule set, and the lookup
// must return the overall best match over the full base rule list —
// including rules the merged view has tombstoned (the view checks the
// winner against its tombstone set itself and rescans on a hit). An
// "optimised" base lookup that skips tombstoned rules internally would be
// unsound: tree builds prune leaf rules shadowed by higher-priority rules,
// so the best surviving match can be absent from the structure once its
// shadower is deleted.
type LookupFunc func(p rule.Packet) (rule.Rule, bool)

// BatchLookupFunc is a base classifier's batched lookup: it classifies
// ps[i] into out[i] for every i. It must be result-identical to len(ps)
// LookupFunc calls and carries the same soundness contract (full base list,
// tombstoned rules included). Bases built from the engine's compiled tree
// backends route this through the grouped prefetching traversal, which is
// why View.ClassifyBatch exists at all.
type BatchLookupFunc func(ps []rule.Packet, out []rule.Result)

// Base is one immutable base generation: a built classifier, the rule set
// it was built over, and the ID->index mapping Views need. It is shared by
// every View derived between two compactions.
type Base struct {
	lookup    LookupFunc
	batch     BatchLookupFunc
	set       *rule.Set
	indexByID map[int]int
	// view is the base's own View: no overlay, no tombstones.
	view *View
}

// NewBase wraps a built classifier as an overlay base. The set must be in
// canonical form (rule i has Priority i), which every engine-built and
// artifact-loaded set satisfies. Both lookups are required.
func NewBase(set *rule.Set, lookup LookupFunc, batch BatchLookupFunc) (*Base, error) {
	if lookup == nil {
		return nil, errors.New("updater: base lookup is nil")
	}
	if batch == nil {
		return nil, errors.New("updater: base batch lookup is nil")
	}
	idx := make(map[int]int, set.Len())
	pos := make([]int32, set.Len())
	for i, r := range set.Rules() {
		if r.Priority != i {
			return nil, fmt.Errorf("updater: base set not canonical: rule %d has priority %d", i, r.Priority)
		}
		if _, dup := idx[r.ID]; dup {
			return nil, fmt.Errorf("updater: base set has duplicate rule id %d", r.ID)
		}
		idx[r.ID] = i
		pos[i] = int32(i)
	}
	b := &Base{lookup: lookup, batch: batch, set: set, indexByID: idx}
	b.view = &View{base: b, n: set.Len(), pos: pos, merged: set}
	return b, nil
}

// Set returns the base's rule set.
func (b *Base) Set() *rule.Set { return b.set }

// View returns the base's own View (no overlay, no tombstones), the
// starting point for the first update after a build or compaction.
func (b *Base) View() *View { return b.view }

// View is one immutable merged (base + overlay + tombstones) generation.
// All fields are read-only once the View is returned (the merged list is
// built at most once, behind mergedOnce); lookups are safe for concurrent
// use and allocation-free.
type View struct {
	base *Base
	// n is the length of the merged (logical) rule list this view serves.
	n int
	// overlay holds the non-base rules in merged order; each keeps its
	// merged index as Priority, so a scan can stop at the base winner's.
	overlay []rule.Rule
	// pos[bi] is the merged index of base rule bi, or -1 once it is
	// deleted (a tombstone).
	pos    []int32
	tombsN int

	// merged is the logical rule list (priorities are indices, as
	// everywhere else in the repository), built by Merged on first use
	// unless the View was derived from it.
	mergedOnce sync.Once
	merged     *rule.Set
}

// NewView derives the immutable serving view for a merged rule list over a
// base. merged must be canonical (rule i has Priority i) and must preserve
// the relative order of the base rules it retains. The derivation is one
// O(len(merged)) pass with one map probe per rule; updates use the
// incremental View.Insert and View.Delete instead.
func NewView(b *Base, merged *rule.Set) (*View, error) {
	v := &View{base: b, n: merged.Len(), merged: merged, pos: make([]int32, b.set.Len())}
	for bi := range v.pos {
		v.pos[bi] = -1
	}
	lastBaseIdx := -1
	for i, r := range merged.Rules() {
		if r.Priority != i {
			return nil, fmt.Errorf("updater: merged set not canonical: rule %d has priority %d", i, r.Priority)
		}
		bi, isBase := b.indexByID[r.ID]
		if !isBase {
			v.overlay = append(v.overlay, r)
			continue
		}
		if bi <= lastBaseIdx {
			return nil, fmt.Errorf("updater: merged list reorders base rules (id %d)", r.ID)
		}
		v.pos[bi] = int32(i)
		lastBaseIdx = bi
	}
	v.tombsN = b.set.Len() - (merged.Len() - len(v.overlay))
	return v, nil
}

// Insert returns the View that serves v's merged list with r inserted at
// position pos (clamped to [0, Len()]), r.ID kept. IDs are unique across
// the base and the overlay, so an ID the base ever held, or a live overlay
// rule's, is refused. The cost is one pass over the base ranks and one copy
// of the overlay; the rule list itself is neither copied nor renumbered.
func (v *View) Insert(pos int, r rule.Rule) (*View, error) {
	if _, inBase := v.base.indexByID[r.ID]; inBase {
		return nil, fmt.Errorf("updater: insert of rule id %d, which the base already holds", r.ID)
	}
	for i := range v.overlay {
		if v.overlay[i].ID == r.ID {
			return nil, fmt.Errorf("updater: insert of rule id %d, which the overlay already holds", r.ID)
		}
	}
	pos = min(max(pos, 0), v.n)
	r.Priority = pos
	k := sort.Search(len(v.overlay), func(i int) bool { return v.overlay[i].Priority >= pos })
	overlay := make([]rule.Rule, 0, len(v.overlay)+1)
	overlay = append(overlay, v.overlay[:k]...)
	overlay = append(overlay, r)
	for _, o := range v.overlay[k:] {
		o.Priority++
		overlay = append(overlay, o)
	}
	return &View{base: v.base, n: v.n + 1, overlay: overlay,
		pos: shiftRanks(v.pos, pos-1, 1), tombsN: v.tombsN}, nil
}

// Delete returns the View that serves v's merged list without the rule
// whose ID is id: a base rule becomes a tombstone, an overlay rule leaves
// the overlay. An ID with no live rule is an error wrapping ErrUnknownRule.
// The ID is found by one base index probe or an overlay scan, and the cost
// is the same as Insert's.
func (v *View) Delete(id int) (*View, error) {
	k := -1 // overlay index of the deleted rule; -1 for a base rule
	bi, inBase := v.base.indexByID[id]
	var rank int
	if inBase && v.pos[bi] >= 0 {
		rank = int(v.pos[bi])
	} else {
		for i := range v.overlay {
			if v.overlay[i].ID == id {
				k = i
				break
			}
		}
		if k < 0 {
			return nil, fmt.Errorf("updater: delete of rule %d: %w", id, ErrUnknownRule)
		}
		rank = v.overlay[k].Priority
	}
	next := &View{base: v.base, n: v.n - 1, pos: shiftRanks(v.pos, rank, -1), tombsN: v.tombsN}
	if k < 0 {
		next.pos[bi] = -1
		next.tombsN++
	}
	next.overlay = make([]rule.Rule, 0, len(v.overlay))
	for i, o := range v.overlay {
		if i == k {
			continue
		}
		if o.Priority > rank {
			o.Priority--
		}
		next.overlay = append(next.overlay, o)
	}
	return next, nil
}

// shiftRanks returns a copy of pos in which every live rank above after is
// moved by delta; tombstones (-1) stay.
func shiftRanks(pos []int32, after int, delta int32) []int32 {
	out := make([]int32, len(pos))
	a := int32(after)
	for bi, p := range pos {
		if p > a {
			p += delta
		}
		out[bi] = p
	}
	return out
}

// Len returns the length of the merged rule list the view serves.
func (v *View) Len() int { return v.n }

// Merged returns the logical rule list the view serves. A View derived by
// Insert or Delete builds it on the first call (one O(Len()) pass, safe
// for concurrent callers, who all get the same set) and keeps it.
func (v *View) Merged() *rule.Set {
	v.mergedOnce.Do(func() {
		if v.merged != nil {
			return
		}
		rules := make([]rule.Rule, v.n)
		for bi, p := range v.pos {
			if p >= 0 {
				rules[p] = v.base.set.Rule(bi)
				rules[p].Priority = int(p)
			}
		}
		for _, r := range v.overlay {
			rules[r.Priority] = r
		}
		v.merged = rule.NewSetKeepPriorities(rules)
	})
	return v.merged
}

// Base returns the view's base generation.
func (v *View) Base() *Base { return v.base }

// OverlayLen returns the number of rules held in the delta overlay.
func (v *View) OverlayLen() int { return len(v.overlay) }

// FromOverlay reports whether the rule with the given ID lives in the
// delta overlay rather than the base — i.e. it was inserted after the last
// compaction. The slow-lookup flight recorder uses it to attribute a
// winning rule to the overlay or the compiled base. Allocation-free (one
// map probe against the base's ID index).
func (v *View) FromOverlay(id int) bool {
	_, inBase := v.base.indexByID[id]
	return !inBase
}

// Tombstones returns the number of tombstoned base rules.
func (v *View) Tombstones() int { return v.tombsN }

// Classify returns the highest-priority rule of the merged list matching p,
// or ok=false. The path is allocation-free: one base lookup (with a
// tombstone check on its winner) and an overlay scan that stops at the
// base winner's priority.
func (v *View) Classify(p rule.Packet) (rule.Rule, bool) {
	var res rule.Result
	res.Rule, res.OK = v.base.lookup(p)
	v.resolve(p, &res)
	return res.Rule, res.OK
}

// ClassifyBatch classifies ps[i] into out[i] for every i, result-identical
// to per-packet Classify calls. The base lookups run as one batched call
// (so a compiled tree base serves the span through its grouped prefetching
// traversal), and each base result is then
// resolved in place against the overlay and tombstones — the overlay is
// small by construction, the base is where the memory latency lives.
func (v *View) ClassifyBatch(ps []rule.Packet, out []rule.Result) {
	v.base.batch(ps, out)
	for i, p := range ps {
		v.resolve(p, &out[i])
	}
}

// resolve rewrites one packet's base lookup result in res into the merged
// list's winner, with its merged index as Priority. It is the shared back
// half of Classify and ClassifyBatch.
func (v *View) resolve(p rule.Packet, res *rule.Result) {
	best, bi := v.n, len(v.pos) // the winner's merged and base index; none yet
	if res.OK {
		bi = res.Rule.Priority
		if v.pos[bi] < 0 {
			// The base's best match is deleted: rescan the base list past
			// the tombstones. This cannot be pushed into the base structure
			// itself (see LookupFunc); it is the slow path and only runs
			// when a deleted rule would have won.
			for bi++; bi < len(v.pos); bi++ {
				if v.pos[bi] >= 0 && v.base.set.Rule(bi).Matches(p) {
					break
				}
			}
		}
		if bi < len(v.pos) {
			best = int(v.pos[bi])
		}
	}
	for i := range v.overlay {
		r := &v.overlay[i]
		if r.Priority >= best {
			break
		}
		if r.Matches(p) {
			res.Rule, res.OK = *r, true
			return
		}
	}
	if bi == len(v.pos) {
		*res = rule.Result{}
		return
	}
	res.Rule, res.OK = v.base.set.Rule(bi), true
	res.Rule.Priority = best
}
