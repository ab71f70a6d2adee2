package sqldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// walValuesEqual compares Values structurally (unlike SQL Equal, NULL equals
// NULL here and NaN equals NaN bit-for-bit — codec tests care about exact
// round-trips, not SQL semantics).
func walValuesEqual(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindInt:
		return a.Int == b.Int
	case KindReal:
		return math.Float64bits(a.Real) == math.Float64bits(b.Real)
	case KindText:
		return a.Text == b.Text
	case KindBlob:
		return bytes.Equal(a.Blob, b.Blob)
	default:
		return true
	}
}

func TestWALPayloadRoundTrip(t *testing.T) {
	cases := [][]Value{
		nil,
		{Null()},
		{Int64(-42), Float64(3.5), Text("héllo"), Blob([]byte{0, 1, 255}), Bool(true)},
		{Text(""), Blob(nil), Float64(math.Inf(-1)), Int64(math.MaxInt64)},
	}
	for i, args := range cases {
		sql := fmt.Sprintf("INSERT INTO t VALUES (?); -- case %d", i)
		payload := appendWALPayload(nil, sql, args)
		gotSQL, gotArgs, err := decodeWALPayload(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if gotSQL != sql {
			t.Fatalf("case %d: sql round-trip: %q != %q", i, gotSQL, sql)
		}
		if len(gotArgs) != len(args) {
			t.Fatalf("case %d: got %d args, want %d", i, len(gotArgs), len(args))
		}
		for j := range args {
			if !walValuesEqual(gotArgs[j], args[j]) {
				t.Fatalf("case %d arg %d: %+v != %+v", i, j, gotArgs[j], args[j])
			}
		}
	}
}

func TestWALPayloadDecodeTruncated(t *testing.T) {
	payload := appendWALPayload(nil, "INSERT INTO t VALUES (?, ?, ?)",
		[]Value{Int64(7), Text("abcdef"), Blob([]byte{1, 2, 3})})
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := decodeWALPayload(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(payload))
		}
	}
}

// walTestDB opens a WAL-backed DB at dir/test.db with a simple table.
func walTestDB(t *testing.T, dir string, opts WALOptions) *DB {
	t.Helper()
	db, err := OpenWithWAL(filepath.Join(dir, "test.db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE IF NOT EXISTS kv (k TEXT PRIMARY KEY, v INTEGER NOT NULL)"); err != nil {
		db.Close()
		t.Fatal(err)
	}
	return db
}

func kvCount(t *testing.T, db *DB) int {
	t.Helper()
	n, err := db.RowCount("kv")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestWALReopenReplaysRecords(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{})
	for i := 0; i < 20; i++ {
		if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)",
			Text(fmt.Sprintf("k%02d", i)), Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// No checkpoint ran: the image file may not even exist, everything lives
	// in the log. Both open paths must recover all 20 rows.
	plain, err := Open(filepath.Join(dir, "test.db"))
	if err != nil {
		t.Fatal(err)
	}
	if n := kvCount(t, plain); n != 20 {
		t.Fatalf("plain Open recovered %d rows, want 20", n)
	}
	db2 := walTestDB(t, dir, WALOptions{})
	defer db2.Close()
	if n := kvCount(t, db2); n != 20 {
		t.Fatalf("WAL reopen recovered %d rows, want 20", n)
	}
	if got := db2.WALStats().Replayed; got != 21 { // CREATE TABLE + 20 inserts
		t.Fatalf("replayed %d records, want 21", got)
	}
	// The recovered DB keeps working and survives another cycle.
	if _, err := db2.Exec("INSERT INTO kv VALUES (?, ?)", Text("extra"), Int64(99)); err != nil {
		t.Fatal(err)
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{})
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)",
					Text(fmt.Sprintf("w%d-%03d", w, i)), Int64(int64(i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := db.WALStats()
	if st.Records != writers*each+1 {
		t.Fatalf("recorded %d, want %d", st.Records, writers*each+1)
	}
	// Group commit must have coalesced at least some committers: strictly
	// fewer fsyncs than records would be flaky on a fast machine, but batch
	// count can never exceed record count and must be non-zero.
	if st.CommitBatches == 0 || st.CommitBatches > st.Records {
		t.Fatalf("implausible commit batches %d for %d records", st.CommitBatches, st.Records)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := walTestDB(t, dir, WALOptions{})
	defer db2.Close()
	if n := kvCount(t, db2); n != writers*each {
		t.Fatalf("recovered %d rows, want %d", n, writers*each)
	}
}

func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{})
	for i := 0; i < 10; i++ {
		if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)",
			Text(fmt.Sprintf("k%d", i)), Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "test.db.wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way into the last record.
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := walTestDB(t, dir, WALOptions{})
	if n := kvCount(t, db2); n != 9 {
		t.Fatalf("recovered %d rows after torn tail, want 9", n)
	}
	// The torn bytes were truncated; appending must produce a valid log.
	if _, err := db2.Exec("INSERT INTO kv VALUES (?, ?)", Text("post"), Int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := walTestDB(t, dir, WALOptions{})
	defer db3.Close()
	if n := kvCount(t, db3); n != 10 {
		t.Fatalf("recovered %d rows after repair, want 10", n)
	}
}

func TestWALCorruptCRCStopsReplay(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{})
	for i := 0; i < 10; i++ {
		if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)",
			Text(fmt.Sprintf("k%d", i)), Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "test.db.wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the last record (well past its frame).
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := walTestDB(t, dir, WALOptions{})
	defer db2.Close()
	if n := kvCount(t, db2); n != 9 {
		t.Fatalf("recovered %d rows after CRC corruption, want 9 (stop before bad record)", n)
	}
}

func TestWALCheckpointFoldsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	db := walTestDB(t, dir, WALOptions{})
	for i := 0; i < 10; i++ {
		if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)",
			Text(fmt.Sprintf("k%d", i)), Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	before := db.WALStats().Size
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.WALStats()
	if st.Size != walHeaderSize {
		t.Fatalf("wal size after checkpoint = %d, want %d", st.Size, walHeaderSize)
	}
	if before <= walHeaderSize {
		t.Fatalf("wal size before checkpoint = %d, expected records", before)
	}
	if st.Checkpoints != 1 || st.Generation != 1 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	// The image alone now carries everything.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gen := parseGeneration(string(img)); gen != 1 {
		t.Fatalf("image generation = %d, want 1", gen)
	}
	// Post-checkpoint writes land in the fresh log and replay over the image.
	if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)", Text("post"), Int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := walTestDB(t, dir, WALOptions{})
	defer db2.Close()
	if n := kvCount(t, db2); n != 11 {
		t.Fatalf("recovered %d rows, want 11", n)
	}
	if got := db2.WALStats().Replayed; got != 1 {
		t.Fatalf("replayed %d records over the checkpoint image, want 1", got)
	}
}

func TestWALStaleGenerationDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	db := walTestDB(t, dir, WALOptions{})
	for i := 0; i < 5; i++ {
		if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)",
			Text(fmt.Sprintf("k%d", i)), Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash in the checkpoint window after the image rename but
	// before the WAL reset: write a generation-1 image by hand, leaving the
	// generation-0 log (with its 5 inserts) beside it.
	img, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	data := generationHeader(1) + img.Dump()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, open := range []string{"plain", "wal"} {
		var got *DB
		if open == "plain" {
			if got, err = Open(path); err != nil {
				t.Fatal(err)
			}
		} else {
			if got, err = OpenWithWAL(path, WALOptions{}); err != nil {
				t.Fatal(err)
			}
			defer got.Close()
		}
		if n := kvCount(t, got); n != 5 {
			t.Fatalf("%s open: %d rows, want 5 (stale WAL must not double-apply)", open, n)
		}
		if got.WALStats().Replayed != 0 {
			t.Fatalf("%s open replayed records from a stale-generation WAL", open)
		}
	}
}

func TestWALSaveElsewhereThenReopen(t *testing.T) {
	// A plain (non-WAL) Save to the DB's own path must invalidate a sidecar
	// WAL it has absorbed — the generation bump covers this.
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	db := walTestDB(t, dir, WALOptions{})
	if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)", Text("a"), Int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	plain, err := Open(path) // replays the sidecar WAL
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Save(path); err != nil { // non-WAL durable save, new generation
		t.Fatal(err)
	}
	again, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := kvCount(t, again); n != 1 {
		t.Fatalf("after save+reopen: %d rows, want 1 (WAL replayed twice?)", n)
	}
}

func TestWALAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{CheckpointBytes: 2048})
	for i := 0; i < 200; i++ {
		if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)",
			Text(fmt.Sprintf("key-%04d", i)), Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := db.WALStats()
	if st.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoint after %d bytes of records", st.Bytes)
	}
	if st.Size >= st.Bytes+walHeaderSize {
		t.Fatalf("wal never truncated: size=%d appended=%d", st.Size, st.Bytes)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := walTestDB(t, dir, WALOptions{})
	defer db2.Close()
	if n := kvCount(t, db2); n != 200 {
		t.Fatalf("recovered %d rows, want 200", n)
	}
}

func TestWALRelaxedSyncStillRecovers(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{SyncEvery: 16})
	for i := 0; i < 50; i++ {
		if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)",
			Text(fmt.Sprintf("k%03d", i)), Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Close fsyncs the deferred tail, so a clean shutdown loses nothing even
	// under the relaxed policy.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := walTestDB(t, dir, WALOptions{})
	defer db2.Close()
	if n := kvCount(t, db2); n != 50 {
		t.Fatalf("recovered %d rows, want 50", n)
	}
}

func TestWALNoRecordsForNoOps(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{})
	defer db.Close()
	base := db.WALStats().Records
	// Schema reinstall and no-op DML must not grow the log.
	if _, err := db.Exec("CREATE TABLE IF NOT EXISTS kv (k TEXT PRIMARY KEY, v INTEGER NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM kv WHERE k = ?", Text("absent")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE kv SET v = 0 WHERE k = ?", Text("absent")); err != nil {
		t.Fatal(err)
	}
	if got := db.WALStats().Records; got != base {
		t.Fatalf("no-op statements appended %d records", got-base)
	}
}

// TestWALMultiRowInsertAtomic: a multi-row INSERT whose last row violates
// the primary key leaves no row behind — not in memory, not in the primary
// key index, and not in a checkpoint image taken afterwards.
func TestWALMultiRowInsertAtomic(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{})
	if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)", Text("k1"), Int64(1)); err != nil {
		t.Fatal(err)
	}
	_, err := db.Exec("INSERT INTO kv VALUES (?, ?), (?, ?), (?, ?)",
		Text("k2"), Int64(2), Text("k3"), Int64(3), Text("k1"), Int64(4))
	if !errors.Is(err, ErrConstraint) {
		t.Fatalf("duplicate key insert: err = %v, want ErrConstraint", err)
	}
	if n := kvCount(t, db); n != 1 {
		t.Fatalf("failed insert left %d rows visible, want 1", n)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := walTestDB(t, dir, WALOptions{})
	defer db2.Close()
	if n := kvCount(t, db2); n != 1 {
		t.Fatalf("reopen recovered %d rows, want 1", n)
	}
	// The rolled-back keys are free again.
	if _, err := db2.Exec("INSERT INTO kv VALUES (?, ?), (?, ?)",
		Text("k2"), Int64(2), Text("k3"), Int64(3)); err != nil {
		t.Fatal(err)
	}
	if n := kvCount(t, db2); n != 3 {
		t.Fatalf("rows = %d after reinsert, want 3", n)
	}
}

func TestWALMutationsFailAfterClose(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)", Text("x"), Int64(1)); err == nil {
		t.Fatal("insert after Close succeeded")
	}
	// Reads still work.
	if _, err := db.Query("SELECT * FROM kv"); err != nil {
		t.Fatal(err)
	}
}

// FuzzWALRecord fuzzes both directions of the frame codec: arbitrary bytes
// through replay must stop cleanly (no panic, no apply of a corrupt frame),
// and a valid encoded record prefixed to the fuzz data must always survive.
func FuzzWALRecord(f *testing.F) {
	f.Add("INSERT INTO t VALUES (?)", int64(1), "txt", []byte{1, 2}, []byte{})
	f.Add("", int64(-9), "", []byte(nil), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add("UPDATE x SET a = ?", int64(0), "δ", []byte{0, 0, 0}, []byte("GWAL garbage"))
	f.Fuzz(func(t *testing.T, sql string, n int64, txt string, blob, tail []byte) {
		args := []Value{Int64(n), Text(txt), Blob(blob), Null(), Float64(float64(n) / 3)}
		payload := appendWALPayload(nil, sql, args)
		gotSQL, gotArgs, err := decodeWALPayload(payload)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if gotSQL != sql || len(gotArgs) != len(args) {
			t.Fatalf("round-trip mismatch: %q/%d vs %q/%d", gotSQL, len(gotArgs), sql, len(args))
		}
		for i := range args {
			if !walValuesEqual(gotArgs[i], args[i]) {
				t.Fatalf("arg %d mismatch: %+v vs %+v", i, gotArgs[i], args[i])
			}
		}
		// One valid frame, then arbitrary tail bytes: replay must apply
		// exactly the valid record and stop cleanly at the damage.
		stream := appendWALFrame(nil, sql, args)
		validLen := int64(walHeaderSize + len(stream))
		stream = append(stream, tail...)
		applied := 0
		off, cnt, err := replayWALFile(bytes.NewReader(stream), func(gotSQL string, gotArgs []Value) error {
			applied++
			if gotSQL != sql {
				t.Fatalf("replayed sql %q, want %q", gotSQL, sql)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("replay returned error: %v", err)
		}
		if applied < 1 || cnt < 1 {
			t.Fatalf("valid leading record not applied (applied=%d cnt=%d)", applied, cnt)
		}
		if off < validLen {
			t.Fatalf("valid offset %d went backwards past the intact record end %d", off, validLen)
		}
		// Raw tail bytes alone: must never panic, never report an error
		// (tail damage is a clean stop), and never apply a frame whose CRC
		// does not check out — replayWALFile verifies CRC before apply, so
		// reaching apply with corrupt data would be the codec's bug.
		_, _, err = replayWALFile(bytes.NewReader(tail), func(string, []Value) error { return nil })
		if err != nil {
			t.Fatalf("tail-only replay returned error: %v", err)
		}
	})
}

func TestWALFrameLengthSanity(t *testing.T) {
	// A frame claiming an absurd payload length must stop replay, not
	// allocate gigabytes.
	var frame [walFrameSize]byte
	binary.LittleEndian.PutUint32(frame[:4], maxWALPayload+1)
	off, n, err := replayWALFile(bytes.NewReader(frame[:]), func(string, []Value) error {
		t.Fatal("applied a frame with an absurd length")
		return nil
	})
	if err != nil || n != 0 || off != walHeaderSize {
		t.Fatalf("replay of absurd frame: off=%d n=%d err=%v", off, n, err)
	}
}
