package sqldb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goofi/internal/vfs"
)

// TestOpenTruncatedImage: an image cut short (the shape a torn non-atomic
// write would leave) must fail the open loudly, not come up as a silently
// smaller database.
func TestOpenTruncatedImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'first'), (2, 'second')")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the end frame.
	if err := os.WriteFile(path, img[:len(img)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("truncated image opened cleanly")
	}
}

// TestOpenWALCorruptImage: WAL-mode open goes through the same image load and
// must reject a corrupt image the same way the plain open does.
func TestOpenWALCorruptImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.db")
	if err := os.WriteFile(path, []byte("CREATE GARBAGE;"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWithWAL(path, WALOptions{SyncEvery: 1}); err == nil {
		t.Fatal("corrupt image opened cleanly in WAL mode")
	}
}

// TestOpenUnreadableWALSidecar: a read error while replaying the sidecar is a
// device fault, not a torn tail — the open must surface it instead of
// silently truncating acknowledged records.
func TestOpenUnreadableWALSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	db, err := OpenWithWAL(path, WALOptions{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (42)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Sanity: the sidecar holds the records and a healthy open recovers them.
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rows := mustQuery(t, db2, "SELECT a FROM t"); rows.Len() != 1 {
		t.Fatalf("sanity open recovered %d rows, want 1", rows.Len())
	}

	// Op 0 is the image ReadFile, op 1 the sidecar open; op 2 is the first
	// read of the sidecar header — fail exactly that.
	fsys, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{
		Schedule: vfs.Schedule{{Op: 2, Kind: vfs.FaultReadErr}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenFS(path, fsys)
	if err == nil {
		t.Fatal("open with an unreadable WAL sidecar succeeded silently")
	}
	if !vfs.IsTransient(err) {
		t.Errorf("sidecar read fault should stay transient through the wraps: %v", err)
	}
	if !strings.Contains(err.Error(), "wal") {
		t.Errorf("error does not identify the WAL as the failing part: %v", err)
	}
}

// TestSaveRollsBackGenerationOnError: a failed save must roll the generation
// bump back, or the next successful save writes an image whose generation
// skips a step while the sidecar WAL still names the current one.
func TestSaveRollsBackGenerationOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.db")
	fsys, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{
		Schedule: vfs.Schedule{{Op: 0, Kind: vfs.FaultOpenErr}}, // fail the temp-file create of the first save only
	})
	if err != nil {
		t.Fatal(err)
	}
	db := New()
	db.fs = fsys
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	if err := db.Save(path); err == nil {
		t.Fatal("save with an injected temp-create fault succeeded")
	}
	if db.generation != 0 {
		t.Fatalf("generation advanced to %d on a failed save", db.generation)
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g := imageGeneration(t, data); g != 1 {
		t.Fatalf("image generation %d after fail-then-succeed, want 1", g)
	}
}
