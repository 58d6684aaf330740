package perf

import (
	"errors"
	"slices"
	"testing"
)

// TestTimingWindows: a whole-trace pass classifies every packet once, the
// last window short; concurrent submitters take disjoint consecutive
// windows; the warm-up pass runs but is not reported; a window's error ends
// the run.
func TestTimingWindows(t *testing.T) {
	seen := make([]int, 10)
	tm := traceTiming(len(seen), 4, 2)
	tm.warmup = true
	ps, err := tm.run(func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("%d passes reported, want 2", len(ps))
	}
	for i, n := range seen {
		if n != 3 {
			t.Errorf("packet %d classified %d times over warm-up + 2 passes, want 3", i, n)
		}
	}
	for _, p := range ps {
		if len(p.lats) != 3 || !slices.IsSorted(p.lats) || p.pps <= 0 {
			t.Errorf("pass %+v: want 3 sorted latencies and a positive rate", p)
		}
	}

	var bySub [2][8]int
	par := timing{packets: 8, passes: 1, batches: 2, batch: 2, submitters: 2}
	if _, err := par.run(func(s, lo, hi int) error {
		for i := lo; i < hi; i++ {
			bySub[s][i]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := [2][8]int{{1, 1, 1, 1}, {4: 1, 5: 1, 6: 1, 7: 1}}; bySub != want {
		t.Errorf("submitter windows %v, want %v", bySub, want)
	}

	boom := errors.New("boom")
	if _, err := par.run(func(s, lo, hi int) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("window error: got %v", err)
	}
}
