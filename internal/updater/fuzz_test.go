package updater

import (
	"testing"

	"neurocuts/internal/rule"
)

// FuzzJournalReplay throws arbitrary bytes at the journal parser and, when
// they parse, replays the ops onto a small rule list. The parser must never
// panic, never allocate proportionally to hostile length prefixes, and the
// valid prefix it reports must itself re-parse to the same ops.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a well-formed journal carrying a few records.
	set := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0), rule.NewWildcardRule(1)})
	header, err := encodeHeader(JournalMeta{Backend: "seed", BaseRules: set.Len(), BaseCRC: Fingerprint(set)})
	if err != nil {
		f.Fatal(err)
	}
	valid := append([]byte(nil), header...)
	for _, op := range testOps(5) {
		valid = append(valid, encodeOp(op)...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(header)
	f.Add([]byte("NCUJ"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-10] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, ops, validLen, err := ParseJournal(data)
		if err != nil {
			return
		}
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(data))
		}
		// The valid prefix must round-trip: parsing it again yields the same
		// metadata and ops (this is what Open relies on after truncation).
		meta2, ops2, validLen2, err2 := ParseJournal(data[:validLen])
		if err2 != nil {
			t.Fatalf("valid prefix does not re-parse: %v", err2)
		}
		if validLen2 != validLen || len(ops2) != len(ops) || meta2 != meta {
			t.Fatalf("prefix re-parse diverges: %d/%d ops, %d/%d bytes", len(ops2), len(ops), validLen2, validLen)
		}
		// Replaying onto a list the ops may not describe must error or
		// succeed — never panic. Bound the work for absurd op counts.
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		base := rule.NewSet([]rule.Rule{rule.NewWildcardRule(0)})
		b, err := NewBase(base, base.Match, linearBatch(base))
		if err != nil {
			t.Fatal(err)
		}
		if v, _, rerr := Replay(b.View(), ops); rerr == nil && v.Len() != v.Merged().Len() {
			t.Fatalf("replayed view length %d, merged list %d", v.Len(), v.Merged().Len())
		}
	})
}
