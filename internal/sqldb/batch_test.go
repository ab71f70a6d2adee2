package sqldb

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// walFixtureStmts are the statements behind testdata/wal/parent.wal, a log
// written one Exec per statement by the WAL codec as it was before batches
// existed.
var walFixtureStmts = []Stmt{
	{"CREATE TABLE IF NOT EXISTS t (k TEXT PRIMARY KEY, n INTEGER NOT NULL, r REAL, b BLOB)", nil},
	{"INSERT INTO t VALUES (?, ?, ?, ?), (?, ?, ?, ?)", []Value{Text("a"), Int64(-7), Float64(2.5), Blob([]byte{0, 1, 0xff}), Text("b"), Int64(1 << 40), Null(), Blob(nil)}},
	{"INSERT INTO t VALUES ('c', 3, NULL, x'cafe')", nil},
	{"DELETE FROM t WHERE k = ?", []Value{Text("a")}},
}

// TestWALSingleStatementBytesUnchanged: a statement logged by Exec, or by an
// ExecBatch that changed state with only that statement, is framed byte for
// byte as before batches existed, and such a log still replays.
func TestWALSingleStatementBytesUnchanged(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "wal", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, viaBatch := range []bool{false, true} {
		dir := t.TempDir()
		db, err := OpenWithWAL(filepath.Join(dir, "f.db"), WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range walFixtureStmts {
			if viaBatch {
				// The no-op CREATE is not logged: one statement changes state.
				err = db.ExecBatch([]Stmt{walFixtureStmts[0], st})
			} else {
				_, err = db.Exec(st.SQL, st.Args...)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		db.Close()
		got, err := os.ReadFile(filepath.Join(dir, "f.db.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fixture) {
			t.Fatalf("batch=%t: log differs from the fixture:\n got %x\nwant %x", viaBatch, got, fixture)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f.db.wal"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWithWAL(filepath.Join(dir, "f.db"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.WALStats().Replayed; got != int64(len(walFixtureStmts)) {
		t.Fatalf("replayed %d records, want %d", got, len(walFixtureStmts))
	}
	if got := db.Dump(); got != "CREATE TABLE t (k TEXT, n INTEGER NOT NULL, r REAL, b BLOB, PRIMARY KEY (k));\n"+
		"INSERT INTO t VALUES ('b', 1099511627776, NULL, x'');\n"+
		"INSERT INTO t VALUES ('c', 3, NULL, x'cafe');\n" {
		t.Fatalf("replayed fixture dumps as\n%s", got)
	}
}

// TestExecBatchAllOrNothing: a failing statement undoes every earlier
// statement of its batch — a CREATE TABLE, a DELETE and INSERTs into the
// same table in both orders — and logs nothing.
func TestExecBatchAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{})
	defer db.Close()
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, err := db.Exec("INSERT INTO kv VALUES (?, 1)", Text(k)); err != nil {
			t.Fatal(err)
		}
	}
	before, stats := db.Dump(), db.WALStats()
	err := db.ExecBatch([]Stmt{
		{"INSERT INTO kv VALUES (?, 2)", []Value{Text("new1")}},
		{"CREATE TABLE extra (id INTEGER PRIMARY KEY)", nil},
		{"INSERT INTO extra VALUES (1)", nil},
		{"DELETE FROM kv WHERE k IN (?, ?)", []Value{Text("k1"), Text("new1")}},
		{"INSERT INTO kv VALUES (?, 3), (?, 3)", []Value{Text("new2"), Text("new3")}},
		{"INSERT INTO kv VALUES (?, 4)", []Value{Text("k2")}}, // duplicate key
	})
	if !errors.Is(err, ErrConstraint) {
		t.Fatalf("err = %v, want ErrConstraint", err)
	}
	if got := db.Dump(); got != before {
		t.Fatalf("failed batch changed the database:\n got %s\nwant %s", got, before)
	}
	if got := db.WALStats(); got.Records != stats.Records || got.CommitBatches != stats.CommitBatches {
		t.Fatalf("failed batch logged: %+v, before %+v", got, stats)
	}
	// The primary-key index was restored with the rows: k1 is present again,
	// and the keys the batch inserted are free.
	if _, err := db.Exec("INSERT INTO kv VALUES ('k1', 9)"); !errors.Is(err, ErrConstraint) {
		t.Fatalf("reinsert of restored k1: err = %v, want ErrConstraint", err)
	}
	if err := db.ExecBatch([]Stmt{{"INSERT INTO kv VALUES (?, 5), (?, 5), (?, 5)", []Value{Text("new1"), Text("new2"), Text("new3")}}}); err != nil {
		t.Fatal(err)
	}
	if n := kvCount(t, db); n != 6 {
		t.Fatalf("rows = %d, want 6", n)
	}
}

// TestExecBatchRejectsOtherStatements: only CREATE TABLE, INSERT and DELETE
// can be batched, and a batch holding anything else runs none of it.
func TestExecBatchRejectsOtherStatements(t *testing.T) {
	for _, q := range []string{"UPDATE kv SET v = 2", "SELECT * FROM kv", "DROP TABLE kv", "INSERT INTO"} {
		db := walTestDB(t, t.TempDir(), WALOptions{})
		err := db.ExecBatch([]Stmt{{"INSERT INTO kv VALUES ('a', 1)", nil}, {q, nil}})
		if err == nil {
			t.Fatalf("%q: batch accepted", q)
		}
		if n := kvCount(t, db); n != 0 {
			t.Fatalf("%q: rejected batch left %d rows", q, n)
		}
		db.Close()
	}
}

// TestExecBatchOneCommit: a batch of several mutating statements is one
// group commit with one fsync, counts one record per statement, and replays
// whole.
func TestExecBatchOneCommit(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{SyncEvery: 1})
	before := db.WALStats()
	err := db.ExecBatch([]Stmt{
		{"INSERT INTO kv VALUES (?, 1)", []Value{Text("a")}},
		{"DELETE FROM kv WHERE k = 'nothing'", nil}, // a no-op: not logged
		{"INSERT INTO kv VALUES (?, 2), (?, 3)", []Value{Text("b"), Text("c")}},
		{"DELETE FROM kv WHERE k = ?", []Value{Text("a")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := db.WALStats()
	if d := after.CommitBatches - before.CommitBatches; d != 1 {
		t.Fatalf("batch took %d group commits, want 1", d)
	}
	if d := after.Fsyncs - before.Fsyncs; d != 1 {
		t.Fatalf("batch took %d fsyncs, want 1", d)
	}
	if d := after.Records - before.Records; d != 3 {
		t.Fatalf("batch logged %d records, want 3", d)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := walTestDB(t, dir, WALOptions{})
	defer db2.Close()
	if got := db2.WALStats().Replayed; got != 4 { // CREATE TABLE + the batch
		t.Fatalf("replayed %d records, want 4", got)
	}
	if n := kvCount(t, db2); n != 2 {
		t.Fatalf("reopen recovered %d rows, want 2", n)
	}
}

// TestWALTornBatchDroppedWhole cuts the log at every byte of a logged batch:
// recovery holds the whole batch only when the log is cut after its last
// byte, and otherwise none of it, and the store stays writable after the
// torn tail is truncated.
func TestWALTornBatchDroppedWhole(t *testing.T) {
	dir := t.TempDir()
	db := walTestDB(t, dir, WALOptions{})
	if _, err := db.Exec("INSERT INTO kv VALUES ('lead', 0)"); err != nil {
		t.Fatal(err)
	}
	start := db.WALStats().Size
	batch := []Stmt{
		{"INSERT INTO kv VALUES (?, 1)", []Value{Text("a")}},
		{"INSERT INTO kv VALUES (?, 2), (?, 3)", []Value{Text("b"), Text("c")}},
		{"DELETE FROM kv WHERE k = ?", []Value{Text("lead")}},
	}
	if err := db.ExecBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "test.db.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(log)-int(start), walBatchSize(batch); got != want {
		t.Fatalf("batch took %d log bytes, want %d", got, want)
	}
	for cut := int(start); cut <= len(log); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "test.db.wal"), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db := walTestDB(t, cdir, WALOptions{})
		rows, err := db.Query("SELECT k FROM kv ORDER BY k")
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, r := range rows.Data {
			keys = append(keys, r[0].Text)
		}
		want := "lead"
		if cut == len(log) {
			want = "a b c"
		}
		if got := strings.Join(keys, " "); got != want {
			t.Fatalf("log cut at %d of %d: recovered %q, want %q", cut, len(log), got, want)
		}
		if _, err := db.Exec("INSERT INTO kv VALUES ('after', 9)"); err != nil {
			t.Fatalf("log cut at %d: write after recovery: %v", cut, err)
		}
		db.Close()
	}
}

// TestWALReplayBlobOwnsBytes: replay reads every frame into one reused
// buffer, so a replayed blob must be a copy: the first record's blob keeps
// its bytes after the second record has been read over the same buffer.
func TestWALReplayBlobOwnsBytes(t *testing.T) {
	stream := appendWALFrame(nil, "INSERT INTO t VALUES (?)", []Value{Blob([]byte{1, 2, 3, 4})})
	stream = appendWALFrame(stream, "INSERT INTO t VALUES (?)", []Value{Blob([]byte{9, 9, 9, 9})})
	var blobs [][]byte
	_, n, err := replayWALFile(bytes.NewReader(stream), func(_ string, args []Value) error {
		blobs = append(blobs, args[0].Blob)
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	if !bytes.Equal(blobs[0], []byte{1, 2, 3, 4}) || !bytes.Equal(blobs[1], []byte{9, 9, 9, 9}) {
		t.Fatalf("replayed blobs %v: the first aliases the read buffer", blobs)
	}
}
