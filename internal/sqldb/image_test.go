package sqldb

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// imageOf encodes db as a checkpoint image of generation gen.
func imageOf(db *DB, gen uint64) []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.imageLocked(gen)
}

// imageGeneration loads a whole checkpoint image and returns its generation.
func imageGeneration(t *testing.T, data []byte) uint64 {
	t.Helper()
	gen, err := New().loadImageData(data)
	if err != nil {
		t.Fatalf("load image: %v", err)
	}
	return gen
}

// allKindsDB holds every value kind, text that needs quoting, and more rows
// than one INSERT record carries, in a parent and a child table.
func allKindsDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT NOT NULL UNIQUE)")
	mustExec(t, db, "CREATE TABLE v (k INTEGER PRIMARY KEY, p INTEGER, i INTEGER, r REAL, s TEXT DEFAULT 'd', b BLOB, "+
		"FOREIGN KEY (p) REFERENCES p (id))")
	mustExec(t, db, "INSERT INTO p VALUES (1, 'it''s; a \"parent\"'), (2, '')")
	ints := []int64{0, -1, math.MaxInt64, math.MinInt64, 1 << 40}
	reals := []float64{0, -0.125, 1e300, -2.5e-300, 3.141592653589793}
	texts := []string{"", "plain", "it's", "semi;colon; 'x'", "δ\n--not a comment", "x'00'"}
	blobs := [][]byte{{}, {0}, {0xde, 0xad, 0xbe, 0xef}, bytes.Repeat([]byte{0xff}, 40)}
	for k := 0; k < rows; k++ {
		args := []Value{Int64(int64(k)), Int64(int64(1 + k%2)), Int64(ints[k%len(ints)]),
			Float64(reals[k%len(reals)]), Text(texts[k%len(texts)]), Blob(blobs[k%len(blobs)])}
		if k%7 == 3 {
			args[1], args[2], args[3], args[4], args[5] = Null(), Null(), Null(), Null(), Null()
		}
		mustExec(t, db, "INSERT INTO v VALUES (?, ?, ?, ?, ?, ?)", args...)
	}
	return db
}

// TestImageRoundTripAllKinds: saving and reopening keeps Dump byte-identical
// for tables holding every value kind, across INSERT records of several
// power-of-two sizes.
func TestImageRoundTripAllKinds(t *testing.T) {
	for _, rows := range []int{0, 1, 300, 700} {
		db := allKindsDB(t, rows)
		path := filepath.Join(t.TempDir(), "kinds.db")
		if err := db.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := Open(path)
		if err != nil {
			t.Fatalf("%d rows: %v", rows, err)
		}
		if got.Dump() != db.Dump() {
			t.Fatalf("%d rows: dump differs after a save and reopen:\n%s\nvs\n%s", rows, got.Dump(), db.Dump())
		}
		if got.generation != 1 {
			t.Fatalf("%d rows: generation %d, want 1", rows, got.generation)
		}
	}
}

// TestImageChunks: a table's rows are written in power-of-two INSERT records
// of at most imageChunkRows rows, largest first, and the image is exactly
// the size it was allocated at.
func TestImageChunks(t *testing.T) {
	db := allKindsDB(t, 546)
	data := imageOf(db, 3)
	if len(data) != cap(data) {
		t.Fatalf("image is %d bytes in a %d-byte buffer", len(data), cap(data))
	}
	var sizes []int
	for rows := db.tables["v"].rows; len(rows) > 0; {
		n := imageChunk(rows)
		sizes = append(sizes, n)
		rows = rows[n:]
	}
	if want := []int{256, 256, 32, 2}; !slices.Equal(sizes, want) {
		t.Fatalf("546 rows chunked as %v, want %v", sizes, want)
	}
}

// TestImageDamageFailsOpen: an image is only ever made visible by an atomic
// rename, so any damage is corruption rather than a torn tail and must fail
// the open. A cut at every byte offset (every frame boundary included) and a
// flip of every single byte are tried. The one exception is an empty file,
// which a lying fsync leaves behind a durable rename: it opens as an empty
// generation-0 database, as a missing file does.
func TestImageDamageFailsOpen(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, s TEXT)")
	mustExec(t, db, "CREATE TABLE c (id INTEGER, b BLOB, FOREIGN KEY (id) REFERENCES p (id))")
	mustExec(t, db, "INSERT INTO p VALUES (1, 'one'), (2, 'two'), (3, NULL)")
	mustExec(t, db, "INSERT INTO c VALUES (1, x'0102'), (3, x'')")
	img := imageOf(db, 7)
	if imageGeneration(t, img) != 7 {
		t.Fatal("intact image lost its generation")
	}
	dir := t.TempDir()
	open := func(data []byte) error {
		path := filepath.Join(dir, "d.db")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path)
		return err
	}
	for cut := 1; cut < len(img); cut++ {
		if err := open(img[:cut]); err == nil {
			t.Fatalf("image cut to %d of %d bytes opened cleanly", cut, len(img))
		}
	}
	for i := range img {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := bytes.Clone(img)
			bad[i] ^= mask
			if err := open(bad); err == nil {
				t.Fatalf("image with byte %d of %d flipped by %#x opened cleanly", i, len(img), mask)
			}
		}
	}
	if err := open(append(bytes.Clone(img), 0)); err == nil {
		t.Fatal("image with a trailing byte opened cleanly")
	}
	if err := open(append(bytes.Clone(img), img[len(img)-imageEndSize:]...)); err == nil {
		t.Fatal("image with a second end frame opened cleanly")
	}
	if err := open(nil); err != nil {
		t.Fatalf("empty file: %v", err)
	}
}

// TestTextImageRejected: SQL-script files are not images; the open names
// the format it wanted instead of executing them.
func TestTextImageRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "text.db")
	if err := os.WriteFile(path, []byte("CREATE TABLE t (a INTEGER);\nINSERT INTO t VALUES (1);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() error{
		"plain": func() error { _, err := Open(path); return err },
		"wal": func() error {
			db, err := OpenWithWAL(path, WALOptions{})
			if err == nil {
				db.Close()
			}
			return err
		},
	} {
		if err := open(); err == nil || !strings.Contains(err.Error(), "checkpoint image") {
			t.Fatalf("%s open of a SQL-script file: err = %v, want one naming the image format", name, err)
		}
	}
}

// FuzzImageLoad: arbitrary bytes after the image magic load to an error or
// to a whole database, never a panic. A database that loads re-encodes to
// an image that loads to the same contents. With framed set, the bytes are
// instead one record payload, framed with a valid CRC and end frame, so
// arbitrary records reach the decoder and the apply path.
func FuzzImageLoad(f *testing.F) {
	db := New()
	mustExecF(f, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, s TEXT)")
	mustExecF(f, db, "CREATE TABLE c (id INTEGER, b BLOB, r REAL, FOREIGN KEY (id) REFERENCES p (id))")
	f.Add(imageOf(db, 0)[len(imageMagic):], false)
	mustExecF(f, db, "INSERT INTO p VALUES (1, 'a;''b'), (2, NULL)")
	mustExecF(f, db, "INSERT INTO c VALUES (1, x'00ff', -0.5), (2, NULL, 1e10)")
	img := imageOf(db, 5)
	f.Add(img[len(imageMagic):], false)
	f.Add(img[len(imageMagic):len(img)-1], false)
	f.Add(append(bytes.Clone(img[len(imageMagic):]), img[len(img)-imageEndSize:]...), false)
	f.Add([]byte{}, false)
	f.Add([]byte("CREATE TABLE t (a INTEGER);"), false)
	f.Add(appendWALPayload(nil, "CREATE TABLE u (a INTEGER, b TEXT)", nil), true)
	f.Add(appendWALPayload(nil, "INSERT INTO t VALUES (?), (?)", []Value{Int64(1), Text("2")}), true)
	f.Fuzz(func(t *testing.T, rest []byte, framed bool) {
		data := append([]byte(imageMagic), rest...)
		if framed {
			one := New()
			mustExec(t, one, "CREATE TABLE t (a INTEGER)")
			data = imageOf(one, 1)
			end := bytes.Clone(data[len(data)-imageEndSize:])
			data = data[:len(data)-imageEndSize]
			head := len(data)
			data = closeWALFrame(append(openWALFrame(data), rest...), head)
			endHead := len(data)
			data = append(data, end...)
			binary.LittleEndian.PutUint32(data[endHead+walFrameSize+4:], 2) // CREATE TABLE t and the fuzzed record
			closeWALFrame(data, endHead)
		}
		got := New()
		gen, err := got.loadImageData(data)
		if err != nil {
			return
		}
		again := New()
		if g, err := again.loadImageData(imageOf(got, gen)); err != nil || g != gen {
			t.Fatalf("re-encoded image: generation %d, err %v; want %d", g, err, gen)
		}
		if again.Dump() != got.Dump() {
			t.Fatalf("re-encoded image loads differently:\n%s\nvs\n%s", again.Dump(), got.Dump())
		}
	})
}

func mustExecF(f *testing.F, db *DB, q string) {
	f.Helper()
	if _, err := db.Exec(q); err != nil {
		f.Fatal(err)
	}
}
