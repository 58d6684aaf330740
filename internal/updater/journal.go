package updater

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"neurocuts/internal/rule"
)

// The update journal is the durable write-ahead log of the overlay write
// path: every acknowledged Insert/Delete appends one record before the new
// snapshot is published, so a crash loses nothing that was acknowledged.
// Replaying the journal over the rule set it was started from (an artifact,
// or a deterministically regenerated set — matched by fingerprint)
// reconstructs the exact merged rule list, independent of how the live
// engine had split it between base and overlay or how often it compacted.
//
// On-disk layout (all integers little-endian, following the conventions of
// internal/compiled/format.go):
//
//	magic [4]byte "NCUJ"
//	u32   schema version
//	u32   metadata length, then that many bytes of JSON (JournalMeta)
//	records, each:
//	  u32  payload length
//	  payload: u8 op, then
//	    op=1 (insert): u32 pos, u64 id, 5 x (u64 lo, u64 hi)
//	    op=2 (delete): u64 id
//	  u32  CRC-32 (IEEE) of the payload
//
// A torn or corrupt record ends the valid prefix: Open replays everything
// before it and truncates the file there (standard WAL crash semantics — a
// record is either fully durable or it never happened).

// JournalSchemaVersion identifies the journal binary schema; Open refuses
// journals written under a different version.
const JournalSchemaVersion = 1

// JournalMagic opens every journal file ("NeuroCuts Update Journal").
var JournalMagic = [4]byte{'N', 'C', 'U', 'J'}

// maxRecordPayload bounds one record's payload; real records are < 100
// bytes, the cap keeps hostile length prefixes from forcing allocations.
const maxRecordPayload = 4096

// Op kinds.
const (
	OpInsert uint8 = 1
	OpDelete uint8 = 2
)

// Op is one journaled update.
type Op struct {
	// Kind is OpInsert or OpDelete.
	Kind uint8
	// Pos is the (already clamped) priority position of an insert.
	Pos int
	// ID is the rule ID: assigned at insert, removed at delete.
	ID int
	// Rule carries the inserted rule's ranges (insert only).
	Rule rule.Rule
}

// JournalMeta identifies the rule-list state a journal's records apply to.
type JournalMeta struct {
	// Backend is the engine backend serving at journal creation.
	Backend string `json:"backend"`
	// BaseRules is the rule count of the starting list.
	BaseRules int `json:"base_rules"`
	// BaseCRC fingerprints the starting list (see Fingerprint); replay onto
	// a different list is refused rather than silently diverging.
	BaseCRC uint32 `json:"base_crc"`
	// CreatedUnix is the journal creation time in Unix seconds.
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Fingerprint is the CRC-32 of a rule list's canonical encoding (ranges,
// priorities and IDs, in order). It pins a journal to the exact state its
// records apply to.
func Fingerprint(set *rule.Set) uint32 {
	h := crc32.NewIEEE()
	// The per-rule record is 16 bytes per dimension plus priority and ID.
	// Sized from the dimension list, not a literal, so widening the rule
	// layout (IPv6 / arbitrary-dimension rules) widens the fingerprint with
	// it instead of silently hashing a truncated or over-long record.
	buf := make([]byte, 16*len(rule.Dimensions())+16)
	for _, r := range set.Rules() {
		off := 0
		for _, d := range rule.Dimensions() {
			binary.LittleEndian.PutUint64(buf[off:], r.Ranges[d].Lo)
			binary.LittleEndian.PutUint64(buf[off+8:], r.Ranges[d].Hi)
			off += 16
		}
		binary.LittleEndian.PutUint64(buf[off:], uint64(int64(r.Priority)))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(int64(r.ID)))
		h.Write(buf)
	}
	return h.Sum32()
}

// Journal is an append-only update log backed by one file. Appends are
// serialised by the engine's writer lock; the file is synced per record
// unless the journal was opened with sync disabled.
type Journal struct {
	f    *os.File
	path string
	sync bool
	// off is the end of the last fully durable record (or the header). A
	// failed append truncates back to it so a torn record can never sit in
	// front of later acknowledged records — ParseJournal stops at the first
	// corrupt record, so garbage mid-file would silently void everything
	// after it at replay.
	off     int64
	records int
	// broken latches when a failed append could not be rolled back; every
	// later Append refuses, failing the journal closed rather than
	// acknowledging updates that would not survive a replay.
	broken error
}

// encodeHeader renders the journal header bytes for meta.
func encodeHeader(meta JournalMeta) ([]byte, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("updater: encoding journal metadata: %w", err)
	}
	buf := append([]byte{}, JournalMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, JournalSchemaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(metaJSON)))
	return append(buf, metaJSON...), nil
}

// encodeOp renders one record (length prefix + payload + CRC trailer).
func encodeOp(op Op) []byte {
	payload := []byte{op.Kind}
	switch op.Kind {
	case OpInsert:
		payload = binary.LittleEndian.AppendUint32(payload, uint32(op.Pos))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(int64(op.ID)))
		for _, d := range rule.Dimensions() {
			payload = binary.LittleEndian.AppendUint64(payload, op.Rule.Ranges[d].Lo)
			payload = binary.LittleEndian.AppendUint64(payload, op.Rule.Ranges[d].Hi)
		}
	case OpDelete:
		payload = binary.LittleEndian.AppendUint64(payload, uint64(int64(op.ID)))
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// decodeOp parses one record payload.
func decodeOp(payload []byte) (Op, error) {
	if len(payload) == 0 {
		return Op{}, errors.New("empty record payload")
	}
	op := Op{Kind: payload[0]}
	body := payload[1:]
	switch op.Kind {
	case OpInsert:
		if len(body) != 4+8+rule.NumDims*16 {
			return Op{}, fmt.Errorf("insert record payload is %d bytes", len(payload))
		}
		op.Pos = int(binary.LittleEndian.Uint32(body))
		op.ID = int(int64(binary.LittleEndian.Uint64(body[4:])))
		off := 12
		for _, d := range rule.Dimensions() {
			op.Rule.Ranges[d].Lo = binary.LittleEndian.Uint64(body[off:])
			op.Rule.Ranges[d].Hi = binary.LittleEndian.Uint64(body[off+8:])
			off += 16
		}
		op.Rule.ID = op.ID
	case OpDelete:
		if len(body) != 8 {
			return Op{}, fmt.Errorf("delete record payload is %d bytes", len(payload))
		}
		op.ID = int(int64(binary.LittleEndian.Uint64(body)))
	default:
		return Op{}, fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return op, nil
}

// ParseJournal decodes journal bytes: the header strictly (bad magic,
// version or metadata is an error), then records until the first torn or
// corrupt one. It returns the decoded ops and the byte length of the valid
// prefix (header + intact records), which is where a crashed writer's file
// should be truncated. It never panics on arbitrary input (fuzzed).
func ParseJournal(data []byte) (meta JournalMeta, ops []Op, validLen int, err error) {
	if len(data) < 4+4+4 {
		return meta, nil, 0, fmt.Errorf("updater: journal truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != string(JournalMagic[:]) {
		return meta, nil, 0, fmt.Errorf("updater: bad journal magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != JournalSchemaVersion {
		return meta, nil, 0, fmt.Errorf("updater: journal schema version %d, this build reads version %d", v, JournalSchemaVersion)
	}
	metaLen := binary.LittleEndian.Uint32(data[8:])
	if uint64(metaLen) > uint64(len(data)-12) {
		return meta, nil, 0, fmt.Errorf("updater: journal metadata length %d exceeds file", metaLen)
	}
	if err := json.Unmarshal(data[12:12+metaLen], &meta); err != nil {
		return meta, nil, 0, fmt.Errorf("updater: decoding journal metadata: %w", err)
	}
	off := 12 + int(metaLen)
	validLen = off
	for off+4 <= len(data) {
		plen := binary.LittleEndian.Uint32(data[off:])
		if plen == 0 || plen > maxRecordPayload {
			break // corrupt length: end of valid prefix
		}
		end := off + 4 + int(plen) + 4
		if end > len(data) {
			break // torn tail
		}
		payload := data[off+4 : off+4+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4+int(plen):]) {
			break // corrupt record
		}
		op, decErr := decodeOp(payload)
		if decErr != nil {
			break
		}
		ops = append(ops, op)
		off = end
		validLen = off
	}
	return meta, ops, validLen, nil
}

// OpenJournal opens (or creates) the journal at path for a rule list with
// the given metadata. When the file exists, its header must match meta's
// fingerprint and rule count — a mismatched journal belongs to a different
// base and is refused. Intact records are returned for replay, and the file
// is truncated past the last intact record so a torn tail from a crash
// never corrupts subsequent appends.
func OpenJournal(path string, meta JournalMeta, sync bool) (*Journal, []Op, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0) {
		j, cerr := createJournal(path, meta, sync)
		return j, nil, cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("updater: reading journal %s: %w", path, err)
	}
	got, ops, validLen, err := ParseJournal(data)
	if err != nil {
		return nil, nil, fmt.Errorf("updater: journal %s: %w", path, err)
	}
	if got.BaseCRC != meta.BaseCRC || got.BaseRules != meta.BaseRules {
		return nil, nil, fmt.Errorf(
			"updater: journal %s was started from a different rule list (journal: %d rules crc %08x, engine: %d rules crc %08x); "+
				"if this follows a checkpoint interrupted between the artifact save and the journal rotation, "+
				"the artifact already embodies the journaled updates — remove the journal file to proceed",
			path, got.BaseRules, got.BaseCRC, meta.BaseRules, meta.BaseCRC)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("updater: opening journal %s: %w", path, err)
	}
	if err := f.Truncate(int64(validLen)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("updater: truncating journal %s torn tail: %w", path, err)
	}
	if _, err := f.Seek(int64(validLen), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, path: path, sync: sync, off: int64(validLen), records: len(ops)}, ops, nil
}

// createJournal writes a fresh journal containing only the header.
func createJournal(path string, meta JournalMeta, sync bool) (*Journal, error) {
	header, err := encodeHeader(meta)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("updater: creating journal %s: %w", path, err)
	}
	if _, err := f.Write(header); err != nil {
		f.Close()
		return nil, fmt.Errorf("updater: writing journal header: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Journal{f: f, path: path, sync: sync, off: int64(len(header))}, nil
}

// Append durably adds one record. The caller must not publish the update's
// snapshot until Append returns nil — that ordering is what makes every
// acknowledged update replayable. A failed append rolls the file back to
// the previous record boundary; if even the rollback fails the journal
// latches broken and refuses further appends, because a torn record
// mid-file would silently void every acknowledged record after it at
// replay.
func (j *Journal) Append(op Op) error {
	if j.broken != nil {
		return fmt.Errorf("updater: journal failed earlier and is closed to appends: %w", j.broken)
	}
	rec := encodeOp(op)
	_, werr := j.f.Write(rec)
	if werr == nil && j.sync {
		werr = j.f.Sync()
	}
	if werr != nil {
		if terr := j.f.Truncate(j.off); terr == nil {
			_, terr = j.f.Seek(j.off, 0)
			if terr != nil {
				j.broken = terr
			}
		} else {
			j.broken = terr
		}
		return fmt.Errorf("updater: journal append: %w", werr)
	}
	j.off += int64(len(rec))
	j.records++
	return nil
}

// Rotate resets the journal to an empty log over a new starting list —
// called after the engine checkpoints its state (artifact save or load), at
// which point the old records are embodied in the checkpoint.
func (j *Journal) Rotate(meta JournalMeta) error {
	header, err := encodeHeader(meta)
	if err != nil {
		return err
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("updater: journal rotate: %w", err)
	}
	if _, err := j.f.WriteAt(header, 0); err != nil {
		return fmt.Errorf("updater: journal rotate: %w", err)
	}
	if _, err := j.f.Seek(int64(len(header)), 0); err != nil {
		return err
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	j.off = int64(len(header))
	j.records = 0
	// A successful rotate rewrote the file from scratch, so an earlier
	// append failure no longer taints it.
	j.broken = nil
	return nil
}

// Records returns the number of records appended or replayed so far.
func (j *Journal) Records() int { return j.records }

// Bytes returns the journal file's durable length (header plus every intact
// record).
func (j *Journal) Bytes() int64 { return j.off }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if j.sync {
		if err := j.f.Sync(); err != nil {
			j.f.Close()
			return err
		}
	}
	return j.f.Close()
}

// Replay folds ops in order over v through View.Insert and View.Delete —
// the same derivation online updates use — and returns the resulting view
// plus the largest rule ID the ops insert (-1 when none; for nextID
// resumption). A delete of an unknown ID means the journal does not
// describe this list — an error naming the record, not a skip.
func Replay(v *View, ops []Op) (*View, int, error) {
	maxID := -1
	for i, op := range ops {
		var err error
		switch op.Kind {
		case OpInsert:
			if v, err = v.Insert(op.Pos, op.Rule); err != nil {
				return nil, 0, fmt.Errorf("updater: journal record %d: %w", i, err)
			}
			maxID = max(maxID, op.ID)
		case OpDelete:
			if v, err = v.Delete(op.ID); err != nil {
				return nil, 0, fmt.Errorf("updater: journal record %d deletes unknown rule %d", i, op.ID)
			}
		default:
			return nil, 0, fmt.Errorf("updater: journal record %d has unknown kind %d", i, op.Kind)
		}
	}
	return v, maxID, nil
}
