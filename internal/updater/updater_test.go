package updater

import (
	"testing"

	"neurocuts/internal/classbench"
	"neurocuts/internal/rule"
)

// testBase builds a Base whose scalar and batched lookups are the set's own
// linear search (the reference semantics).
func testBase(t testing.TB, set *rule.Set) *Base {
	t.Helper()
	b, err := NewBase(set, set.Match, linearBatch(set))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// linearBatch is set's linear search as a batched lookup.
func linearBatch(set *rule.Set) BatchLookupFunc {
	return func(ps []rule.Packet, out []rule.Result) {
		for i, p := range ps {
			out[i].Rule, out[i].OK = set.Match(p)
		}
	}
}

func genSet(t testing.TB, size int, seed int64) *rule.Set {
	t.Helper()
	fam, err := classbench.FamilyByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	return classbench.Generate(fam, size, seed)
}

// mutateMerged applies a deterministic mix of inserts and deletes to a
// clone of the set, returning the merged list and the next fresh ID.
func mutateMerged(set *rule.Set, inserts, deletes int, nextID int) (*rule.Set, int) {
	merged := set.Clone()
	for i := 0; i < inserts; i++ {
		r := set.Rule((i * 13) % set.Len())
		r.ID = nextID
		nextID++
		merged.Insert((i*31)%(merged.Len()+1), r)
	}
	for i := 0; i < deletes && merged.Len() > 0; i++ {
		merged.Remove((i * 17) % merged.Len())
	}
	return merged, nextID
}

// TestViewMatchesLinearSearch is the core correctness property: a view's
// Classify and ClassifyBatch must agree with linear search over the merged
// list across a mix of overlay inserts and base deletes (so both the fast
// path and the tombstoned-winner rescan are exercised).
func TestViewMatchesLinearSearch(t *testing.T) {
	set := genSet(t, 300, 1)
	merged, _ := mutateMerged(set, 40, 25, 100000)
	trace := classbench.GenerateTrace(merged, 4000, 9)

	b := testBase(t, set)
	v, err := NewView(b, merged)
	if err != nil {
		t.Fatal(err)
	}
	if v.OverlayLen() == 0 || v.Tombstones() == 0 {
		t.Fatalf("overlay=%d tombstones=%d, want both > 0", v.OverlayLen(), v.Tombstones())
	}
	ps := make([]rule.Packet, len(trace))
	for i, e := range trace {
		ps[i] = e.Key
	}
	batch := make([]rule.Result, len(ps))
	v.ClassifyBatch(ps, batch)
	check := func(path string, p rule.Packet, got rule.Rule, ok bool) {
		t.Helper()
		wantIdx := merged.MatchIndex(p)
		if (wantIdx < 0) != !ok {
			t.Fatalf("%s packet %v: ok=%v want match=%v", path, p, ok, wantIdx >= 0)
		}
		if !ok {
			return
		}
		if want := merged.Rule(wantIdx); got.ID != want.ID || got.Priority != wantIdx {
			t.Fatalf("%s packet %v: got rule id=%d prio=%d, want id=%d prio=%d",
				path, p, got.ID, got.Priority, want.ID, wantIdx)
		}
	}
	for i, p := range ps {
		got, ok := v.Classify(p)
		check("Classify", p, got, ok)
		check("ClassifyBatch", p, batch[i].Rule, batch[i].OK)
	}
}

// TestViewEmptyDelta: a view over an unchanged merged list has no overlay,
// no tombstones and identical results.
func TestViewEmptyDelta(t *testing.T) {
	set := genSet(t, 100, 2)
	b := testBase(t, set)
	v, err := NewView(b, set)
	if err != nil {
		t.Fatal(err)
	}
	if v.OverlayLen() != 0 || v.Tombstones() != 0 {
		t.Fatalf("overlay=%d tombstones=%d, want 0/0", v.OverlayLen(), v.Tombstones())
	}
	for _, e := range classbench.GenerateTrace(set, 500, 3) {
		got, ok := v.Classify(e.Key)
		want, wok := set.Match(e.Key)
		if ok != wok || (ok && got.ID != want.ID) {
			t.Fatalf("packet %v: view (%v,%v) vs linear (%v,%v)", e.Key, got.ID, ok, want.ID, wok)
		}
	}
}

// TestViewAllBaseDeleted: tombstoning every base rule must leave only
// overlay rules matching.
func TestViewAllBaseDeleted(t *testing.T) {
	set := genSet(t, 50, 4)
	merged := rule.NewSet(nil)
	w := rule.NewWildcardRule(0)
	w.ID = 999
	merged.Insert(0, w)
	b := testBase(t, set)
	v, err := NewView(b, merged)
	if err != nil {
		t.Fatal(err)
	}
	if v.Tombstones() != set.Len() {
		t.Fatalf("tombstones=%d want %d", v.Tombstones(), set.Len())
	}
	got, ok := v.Classify(rule.Packet{SrcIP: 1, Proto: 6})
	if !ok || got.ID != 999 {
		t.Fatalf("got (%v,%v), want wildcard id=999", got.ID, ok)
	}
}

// TestRankAssignment: overlay rules stacked in one gap keep their merged
// order as strictly ascending ranks, however many there are, and the
// highest-ranked one wins.
func TestRankAssignment(t *testing.T) {
	set := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)})
	b := testBase(t, set)
	merged := set.Clone()
	// Pile many overlay rules into the single gap before the base rule.
	for i := 0; i < 512; i++ {
		r := rule.NewWildcardRule(0)
		r.ID = 1000 + i
		merged.Insert(0, r)
	}
	v, err := NewView(b, merged)
	if err != nil {
		t.Fatalf("512 overlay rules in one gap must fit: %v", err)
	}
	if v.OverlayLen() != 512 {
		t.Fatalf("overlay=%d, want 512", v.OverlayLen())
	}
	for i := 1; i < len(v.overlay); i++ {
		if v.overlay[i].Priority <= v.overlay[i-1].Priority {
			t.Fatalf("ranks not strictly ascending at %d: %d <= %d", i, v.overlay[i].Priority, v.overlay[i-1].Priority)
		}
	}
	// The top-of-list overlay rule (highest priority, most recent insert)
	// must win every lookup.
	got, ok := v.Classify(rule.Packet{Proto: 17})
	if !ok || got.ID != merged.Rule(0).ID || got.Priority != 0 {
		t.Fatalf("got (%d,%d,%v), want top overlay rule id=%d", got.ID, got.Priority, ok, merged.Rule(0).ID)
	}
}

// TestNewViewRejectsNonCanonical: merged lists whose priorities are not
// list indices, or that reorder base rules, are construction errors.
func TestNewViewRejectsNonCanonical(t *testing.T) {
	set := genSet(t, 20, 5)
	b := testBase(t, set)

	bad := rule.NewSetKeepPriorities([]rule.Rule{{Priority: 7, ID: 1}})
	if _, err := NewView(b, bad); err == nil {
		t.Fatal("non-canonical merged list accepted")
	}

	// Swap two base rules: relative base order must be preserved.
	rules := append([]rule.Rule(nil), set.Rules()...)
	rules[0], rules[1] = rules[1], rules[0]
	reordered := rule.NewSet(rules)
	// NewSet rewrites IDs to indices, which would defeat the check; restore
	// the swapped IDs.
	rs := reordered.Rules()
	rs[0].ID, rs[1].ID = set.Rule(1).ID, set.Rule(0).ID
	if _, err := NewView(b, reordered); err == nil {
		t.Fatal("base-rule reordering accepted")
	}
}

// TestNewBaseRejectsNonCanonical: base sets must have index priorities and
// unique IDs, and both lookups must be present.
func TestNewBaseRejectsNonCanonical(t *testing.T) {
	bad := rule.NewSetKeepPriorities([]rule.Rule{{Priority: 3, ID: 0}})
	if _, err := NewBase(bad, bad.Match, linearBatch(bad)); err == nil {
		t.Fatal("non-canonical base set accepted")
	}
	dup := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0), rule.NewWildcardRule(1)})
	dup.Rules()[1].ID = dup.Rules()[0].ID
	if _, err := NewBase(dup, dup.Match, linearBatch(dup)); err == nil {
		t.Fatal("duplicate base IDs accepted")
	}
	ok := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)})
	if _, err := NewBase(ok, ok.Match, linearBatch(ok)); err != nil {
		t.Fatalf("canonical base rejected: %v", err)
	}
	if _, err := NewBase(ok, nil, linearBatch(ok)); err == nil {
		t.Fatal("nil lookup accepted")
	}
	if _, err := NewBase(ok, ok.Match, nil); err == nil {
		t.Fatal("nil batch lookup accepted")
	}
}

// TestViewAllocationFree: the merged lookup performs zero heap allocations
// on both base paths, single and batched, once the view is built.
func TestViewAllocationFree(t *testing.T) {
	set := genSet(t, 200, 6)
	merged, _ := mutateMerged(set, 20, 10, 50000)
	trace := classbench.GenerateTrace(merged, 256, 11)
	b := testBase(t, set)
	v, err := NewView(b, merged)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		v.Classify(trace[i%len(trace)].Key)
		i++
	})
	if allocs != 0 {
		t.Errorf("Classify allocates %.1f allocs/op, want 0", allocs)
	}
	ps := make([]rule.Packet, len(trace))
	for i, e := range trace {
		ps[i] = e.Key
	}
	out := make([]rule.Result, len(ps))
	allocs = testing.AllocsPerRun(50, func() { v.ClassifyBatch(ps, out) })
	if allocs != 0 {
		t.Errorf("ClassifyBatch allocates %.1f allocs/op, want 0", allocs)
	}
}
