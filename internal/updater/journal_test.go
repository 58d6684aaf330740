package updater

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neurocuts/internal/rule"
)

func testOps(n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			ops = append(ops, Op{Kind: OpDelete, ID: 10000 + i - 2})
			continue
		}
		r := rule.NewWildcardRule(0)
		r.ID = 10000 + i
		r.Ranges[rule.DimProto] = rule.Range{Lo: uint64(i % 200), Hi: uint64(i % 200)}
		ops = append(ops, Op{Kind: OpInsert, Pos: i % 5, ID: r.ID, Rule: r})
	}
	return ops
}

func journalMetaFor(set *rule.Set) JournalMeta {
	return JournalMeta{Backend: "test", BaseRules: set.Len(), BaseCRC: Fingerprint(set)}
}

// TestJournalRoundTrip: append, close, reopen, replay — every record comes
// back in order and applies cleanly.
func TestJournalRoundTrip(t *testing.T) {
	set := genSet(t, 50, 1)
	path := filepath.Join(t.TempDir(), "u.journal")
	j, ops, err := OpenJournal(path, journalMetaFor(set), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("fresh journal returned %d ops", len(ops))
	}
	want := testOps(30)
	for _, op := range want {
		if err := j.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if j.Records() != len(want) {
		t.Fatalf("records=%d want %d", j.Records(), len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := OpenJournal(path, journalMetaFor(set), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].ID != want[i].ID || got[i].Pos != want[i].Pos ||
			(got[i].Kind == OpInsert && got[i].Rule.Ranges != want[i].Rule.Ranges) {
			t.Fatalf("op %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	v, maxID, err := Replay(testBase(t, set).View(), got)
	if err != nil {
		t.Fatal(err)
	}
	if maxID < 10000 {
		t.Fatalf("maxID=%d", maxID)
	}
	if v.Len() != set.Len()+20-10 || v.Merged().Len() != v.Len() {
		t.Fatalf("merged len=%d/%d want %d", v.Len(), v.Merged().Len(), set.Len()+10)
	}
}

// TestJournalTornTail: a partial final record (crash mid-append) is
// discarded; the valid prefix replays and the file is truncated so new
// appends extend a clean log.
func TestJournalTornTail(t *testing.T) {
	set := genSet(t, 30, 2)
	path := filepath.Join(t.TempDir(), "u.journal")
	j, _, err := OpenJournal(path, journalMetaFor(set), true)
	if err != nil {
		t.Fatal(err)
	}
	ops := testOps(9)
	for _, op := range ops {
		if err := j.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate a torn final write: append half of one more record.
	full := encodeOp(Op{Kind: OpInsert, Pos: 0, ID: 999999, Rule: rule.NewWildcardRule(0)})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(full[:len(full)/2])
	f.Close()

	j2, got, err := OpenJournal(path, journalMetaFor(set), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("replayed %d ops after torn tail, want %d", len(got), len(ops))
	}
	// The torn bytes must be gone: appending and reopening yields exactly
	// len(ops)+1 records.
	extra := Op{Kind: OpDelete, ID: 10000}
	if err := j2.Append(extra); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, got, err = func() (*Journal, []Op, error) { return OpenJournal(path, journalMetaFor(set), true) }()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops)+1 || got[len(got)-1].ID != extra.ID {
		t.Fatalf("after truncate+append: %d ops, want %d", len(got), len(ops)+1)
	}
}

// TestJournalCorruptRecordEndsPrefix: a bit flip inside a record's payload
// invalidates it and everything after it.
func TestJournalCorruptRecordEndsPrefix(t *testing.T) {
	set := genSet(t, 30, 3)
	path := filepath.Join(t.TempDir(), "u.journal")
	j, _, err := OpenJournal(path, journalMetaFor(set), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range testOps(6) {
		if err := j.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte two records from the end.
	data[len(data)-2*95] ^= 0xFF
	meta, ops, validLen, err := ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.BaseRules != set.Len() {
		t.Fatalf("meta %+v", meta)
	}
	if len(ops) >= 6 {
		t.Fatalf("corrupt record still replayed: %d ops", len(ops))
	}
	if validLen >= len(data) {
		t.Fatalf("validLen=%d not before corruption", validLen)
	}
}

// TestJournalFingerprintMismatch: a journal started from a different rule
// list is refused rather than silently replayed onto the wrong base.
func TestJournalFingerprintMismatch(t *testing.T) {
	setA := genSet(t, 40, 4)
	setB := genSet(t, 40, 5)
	path := filepath.Join(t.TempDir(), "u.journal")
	j, _, err := OpenJournal(path, journalMetaFor(setA), true)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := OpenJournal(path, journalMetaFor(setB), true); err == nil ||
		!strings.Contains(err.Error(), "different rule list") {
		t.Fatalf("mismatched journal accepted: %v", err)
	}
}

// TestJournalRotate: rotation empties the log and stamps the new
// fingerprint, so post-checkpoint records replay onto the checkpoint.
func TestJournalRotate(t *testing.T) {
	set := genSet(t, 20, 6)
	path := filepath.Join(t.TempDir(), "u.journal")
	j, _, err := OpenJournal(path, journalMetaFor(set), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range testOps(3) {
		if err := j.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	set2 := genSet(t, 25, 7)
	if err := j.Rotate(journalMetaFor(set2)); err != nil {
		t.Fatal(err)
	}
	if j.Records() != 0 {
		t.Fatalf("records=%d after rotate", j.Records())
	}
	if err := j.Append(Op{Kind: OpDelete, ID: 3}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := OpenJournal(path, journalMetaFor(set), true); err == nil {
		t.Fatal("old fingerprint accepted after rotate")
	}
	_, ops, err := OpenJournal(path, journalMetaFor(set2), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Kind != OpDelete || ops[0].ID != 3 {
		t.Fatalf("post-rotate ops: %+v", ops)
	}
}

// TestReplayRejectsUnknownDelete: deleting an ID absent from the list means
// the journal does not describe it — an error naming the record, not a
// silent skip. So is a second delete of the same rule, and an unknown op
// kind.
func TestReplayRejectsUnknownDelete(t *testing.T) {
	set := genSet(t, 10, 8)
	v := testBase(t, set).View()
	for _, tc := range []struct {
		ops  []Op
		want string
	}{
		{[]Op{{Kind: OpDelete, ID: 123456}}, "journal record 0 deletes unknown rule 123456"},
		{[]Op{{Kind: OpDelete, ID: 3}, {Kind: OpDelete, ID: 3}}, "journal record 1 deletes unknown rule 3"},
		{[]Op{{Kind: OpDelete, ID: 3}, {Kind: 9}}, "journal record 1 has unknown kind 9"},
	} {
		if _, _, err := Replay(v, tc.ops); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ops %+v: err %v, want %q", tc.ops, err, tc.want)
		}
	}
}

// TestJournalAppendFailsClosed: once an append fails and cannot be rolled
// back, the journal refuses further appends — a torn record mid-file would
// silently void every later acknowledged record at replay, so failing
// closed is the only honest behaviour.
func TestJournalAppendFailsClosed(t *testing.T) {
	set := genSet(t, 10, 9)
	path := filepath.Join(t.TempDir(), "u.journal")
	j, _, err := OpenJournal(path, journalMetaFor(set), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Op{Kind: OpDelete, ID: 1}); err != nil {
		t.Fatal(err)
	}
	// Force every subsequent write and rollback to fail.
	j.f.Close()
	if err := j.Append(Op{Kind: OpDelete, ID: 2}); err == nil {
		t.Fatal("append on dead file succeeded")
	}
	if err := j.Append(Op{Kind: OpDelete, ID: 3}); err == nil ||
		!strings.Contains(err.Error(), "closed to appends") {
		t.Fatalf("journal did not fail closed: %v", err)
	}
	// The on-disk file still replays its durable prefix only.
	_, ops, err := OpenJournal(path, journalMetaFor(set), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].ID != 1 {
		t.Fatalf("replayed %d ops, want the single durable record", len(ops))
	}
}
