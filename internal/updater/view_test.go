package updater

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// Op kinds of the view-chain property test and fuzzer.
const (
	chainInsertTop     = iota // insert at 0
	chainInsertBottom         // insert at Len()
	chainInsertAt             // insert anywhere, one past either end included
	chainReinsert             // re-insert a deleted rule's ranges under a new ID
	chainDeleteOverlay        // delete a live overlay rule
	chainDeleteWinner         // delete the live base rule that wins a probe
	chainDeleteBase           // delete any live base rule
	chainDeleteUnknown        // delete an ID with no live rule (must fail)
	chainKinds
)

// viewChain derives a chain of Views through View.Insert and View.Delete
// and checks each one against a View built from scratch: NewView over the
// same merged list, kept with rule.Set's own Insert and Remove, and linear
// search over that list.
type viewChain struct {
	t      testing.TB
	base   *Base
	v      *View
	ref    *rule.Set
	nextID int
	// deleted holds every deleted rule (for re-inserts and unknown deletes).
	deleted []rule.Rule
	probes  []rule.Packet
	// done counts the ops applied per kind; rescans counts checked lookups
	// whose base winner was tombstoned.
	done    [chainKinds]int
	rescans int
}

func newViewChain(t testing.TB, base *Base, probes []rule.Packet) *viewChain {
	return &viewChain{t: t, base: base, v: base.View(), ref: base.Set().Clone(),
		nextID: 1 << 20, probes: probes}
}

// corner is the low corner of r's box, a packet r matches.
func corner(r rule.Rule) rule.Packet {
	return rule.Packet{
		SrcIP:   uint32(r.Ranges[rule.DimSrcIP].Lo),
		DstIP:   uint32(r.Ranges[rule.DimDstIP].Lo),
		SrcPort: uint16(r.Ranges[rule.DimSrcPort].Lo),
		DstPort: uint16(r.Ranges[rule.DimDstPort].Lo),
		Proto:   uint8(r.Ranges[rule.DimProto].Lo),
	}
}

// step applies one op of the given kind; a and b pick its operands. Ops
// whose precondition does not hold (no overlay rule to delete, ...) are
// skipped.
func (c *viewChain) step(kind, a, b int) {
	n := c.v.Len()
	baseRule := c.base.Set().Rule(a % c.base.Set().Len())
	switch kind {
	case chainInsertTop:
		c.insert(kind, 0, baseRule)
	case chainInsertBottom:
		c.insert(kind, n, baseRule)
	case chainInsertAt:
		c.insert(kind, b%(n+3)-1, baseRule)
	case chainReinsert:
		if len(c.deleted) > 0 {
			c.insert(kind, b%(n+1), c.deleted[a%len(c.deleted)])
		}
	case chainDeleteOverlay:
		if len(c.v.overlay) > 0 {
			c.delete(kind, c.v.overlay[a%len(c.v.overlay)].ID)
		}
	case chainDeleteWinner:
		if w, ok := c.base.Set().Match(c.probes[a%len(c.probes)]); ok && c.v.pos[w.Priority] >= 0 {
			c.delete(kind, w.ID)
		}
	case chainDeleteBase:
		if bi := a % len(c.v.pos); c.v.pos[bi] >= 0 {
			c.delete(kind, c.base.Set().Rule(bi).ID)
		}
	case chainDeleteUnknown:
		id := -1 - a
		if len(c.deleted) > 0 && b%2 == 0 {
			id = c.deleted[a%len(c.deleted)].ID
		}
		if _, err := c.v.Delete(id); !errors.Is(err, ErrUnknownRule) {
			c.t.Fatalf("delete of unknown id %d: err %v, want ErrUnknownRule", id, err)
		}
		c.done[kind]++
	}
}

func (c *viewChain) insert(kind, pos int, r rule.Rule) {
	r.ID = c.nextID
	c.nextID++
	next, err := c.v.Insert(pos, r)
	if err != nil {
		c.t.Fatalf("insert at %d: %v", pos, err)
	}
	if _, err := next.Insert(0, r); err == nil {
		c.t.Fatalf("second insert of id %d accepted", r.ID)
	}
	c.ref.Insert(pos, r) // clamps pos exactly like View.Insert
	c.v = next
	c.probes = append(c.probes, corner(r))
	c.done[kind]++
	c.check()
}

func (c *viewChain) delete(kind, id int) {
	next, err := c.v.Delete(id)
	if err != nil {
		c.t.Fatalf("delete of live id %d: %v", id, err)
	}
	idx := slices.IndexFunc(c.ref.Rules(), func(r rule.Rule) bool { return r.ID == id })
	c.deleted = append(c.deleted, c.ref.Rule(idx))
	c.ref.Remove(idx)
	c.v = next
	c.done[kind]++
	c.check()
}

// check compares the chain's current view with NewView over the reference
// list, field by field, and every probe's lookup, single and batched, with
// linear search over that list (Priority included).
func (c *viewChain) check() {
	t := c.t
	want, err := NewView(c.base, c.ref)
	if err != nil {
		t.Fatalf("NewView over the reference list: %v", err)
	}
	v := c.v
	if v.Len() != c.ref.Len() || v.OverlayLen() != want.OverlayLen() || v.Tombstones() != want.Tombstones() {
		t.Fatalf("len/overlay/tombstones %d/%d/%d, from scratch %d/%d/%d",
			v.Len(), v.OverlayLen(), v.Tombstones(), c.ref.Len(), want.OverlayLen(), want.Tombstones())
	}
	if !slices.Equal(v.overlay, want.overlay) || !slices.Equal(v.pos, want.pos) {
		t.Fatalf("derived overlay/ranks differ from the view built from scratch")
	}
	if !slices.Equal(v.Merged().Rules(), c.ref.Rules()) {
		t.Fatalf("Merged() differs from the reference list")
	}
	out := make([]rule.Result, len(c.probes))
	v.ClassifyBatch(c.probes, out)
	for i, p := range c.probes {
		if w, ok := c.base.Set().Match(p); ok && v.pos[w.Priority] < 0 {
			c.rescans++
		}
		var want rule.Result
		if idx := c.ref.MatchIndex(p); idx >= 0 {
			want = rule.Result{Rule: c.ref.Rule(idx), OK: true}
		}
		got := rule.Result{}
		got.Rule, got.OK = v.Classify(p)
		if got != want || out[i] != want {
			t.Fatalf("probe %v: Classify (%d,%d,%v), ClassifyBatch (%d,%d,%v), linear search (%d,%d,%v)", p,
				got.Rule.ID, got.Rule.Priority, got.OK, out[i].Rule.ID, out[i].Rule.Priority, out[i].OK,
				want.Rule.ID, want.Rule.Priority, want.OK)
		}
	}
}

// chainProbes is a trace over set plus the corner packet of every rule, so
// each base rule wins at least one probe while it is live.
func chainProbes(set *rule.Set, n int, seed int64) []rule.Packet {
	var ps []rule.Packet
	for _, e := range classbench.GenerateTrace(set, n, seed) {
		ps = append(ps, e.Key)
	}
	for _, r := range set.Rules() {
		ps = append(ps, corner(r))
	}
	return ps
}

// TestViewChainMatchesFromScratch is the incremental derivation's property
// test: random chains of View.Insert and View.Delete must produce, after
// every op, the View NewView builds from the same merged list, and serve
// linear search's results over it. Every op kind, including deletes of
// winning base rules (the tombstone rescan), must be exercised.
func TestViewChainMatchesFromScratch(t *testing.T) {
	var done [chainKinds]int
	rescans := 0
	for seed := int64(1); seed <= 12; seed++ {
		set := genSet(t, 40, seed)
		c := newViewChain(t, testBase(t, set), chainProbes(set, 48, seed))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 150; i++ {
			c.step(rng.Intn(chainKinds), rng.Int(), rng.Int())
		}
		for k := range done {
			done[k] += c.done[k]
		}
		rescans += c.rescans
	}
	for k, n := range done {
		if n == 0 {
			t.Errorf("op kind %d never ran", k)
		}
	}
	if rescans == 0 {
		t.Error("no checked lookup had a tombstoned base winner")
	}
}

// FuzzViewChain drives the same check from fuzzer bytes: every three bytes
// are one op (kind, then two operand bytes) over a fixed 24-rule base.
func FuzzViewChain(f *testing.F) {
	set := genSet(f, 24, 3)
	base := testBase(f, set)
	probes := chainProbes(set, 24, 3)
	f.Add([]byte{chainInsertTop, 1, 2, chainDeleteWinner, 3, 0, chainReinsert, 0, 5})
	f.Add([]byte{chainInsertBottom, 7, 0, chainInsertAt, 2, 9, chainDeleteOverlay, 1, 0, chainDeleteUnknown, 0, 0})
	f.Add([]byte{chainDeleteBase, 0, 0, chainDeleteBase, 1, 0, chainDeleteWinner, 4, 0, chainInsertAt, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*200 {
			data = data[:3*200]
		}
		c := newViewChain(t, base, slices.Clone(probes))
		for ; len(data) >= 3; data = data[3:] {
			c.step(int(data[0])%chainKinds, int(data[1]), int(data[2]))
		}
	})
}
