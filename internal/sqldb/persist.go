package sqldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"strings"

	"goofi/internal/vfs"
)

// Dump serialises the whole database as a SQL script that, replayed against
// an empty database, reproduces it: the readable export (`goofi-db .dump`).
// Tables are emitted in creation order so foreign-key parents always precede
// children (FKs can only reference tables that already existed at CREATE
// time). Files on disk hold the binary checkpoint image instead (see Save).
func (db *DB) Dump() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var sb strings.Builder
	for _, key := range db.order {
		t := db.tables[key]
		sb.WriteString(createTableSQL(&t.def))
		sb.WriteString(";\n")
		for _, row := range t.rows {
			sb.WriteString("INSERT INTO ")
			sb.WriteString(t.def.Name)
			sb.WriteString(" VALUES (")
			for i, v := range row {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(valueSQL(v))
			}
			sb.WriteString(");\n")
		}
	}
	return sb.String()
}

func createTableSQL(def *createTableStmt) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(def.Name)
	sb.WriteString(" (")
	for i, c := range def.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		sb.WriteByte(' ')
		sb.WriteString(c.Type.String())
		if c.NotNull {
			sb.WriteString(" NOT NULL")
		}
		if c.Unique {
			sb.WriteString(" UNIQUE")
		}
		if c.Default != nil {
			sb.WriteString(" DEFAULT ")
			sb.WriteString(valueSQL(*c.Default))
		}
	}
	if len(def.PrimaryKey) > 0 {
		sb.WriteString(", PRIMARY KEY (")
		sb.WriteString(strings.Join(def.PrimaryKey, ", "))
		sb.WriteString(")")
	}
	for _, fk := range def.ForeignKeys {
		sb.WriteString(", FOREIGN KEY (")
		sb.WriteString(strings.Join(fk.Columns, ", "))
		sb.WriteString(") REFERENCES ")
		sb.WriteString(fk.RefTable)
		sb.WriteString(" (")
		sb.WriteString(strings.Join(fk.RefColumns, ", "))
		sb.WriteString(")")
	}
	sb.WriteString(")")
	return sb.String()
}

func valueSQL(v Value) string {
	switch v.Kind {
	case KindText:
		return "'" + strings.ReplaceAll(v.Text, "'", "''") + "'"
	default:
		return v.String() // NULL, numbers, x'..' blobs are already SQL
	}
}

// ExecScript executes a multi-statement SQL script. Statements are separated
// by semicolons; semicolons inside string literals are handled. Errors abort
// the script and report the failing statement index.
func (db *DB) ExecScript(script string) error {
	stmts, err := SplitStatements(script)
	if err != nil {
		return err
	}
	for i, s := range stmts {
		if isSelect(s) {
			if _, err := db.Query(s); err != nil {
				return fmt.Errorf("script statement %d: %w", i+1, err)
			}
			continue
		}
		if _, err := db.Exec(s); err != nil {
			return fmt.Errorf("script statement %d: %w", i+1, err)
		}
	}
	return nil
}

func isSelect(s string) bool {
	// Skip leading whitespace and line comments.
	for {
		s = strings.TrimSpace(s)
		if !strings.HasPrefix(s, "--") {
			break
		}
		nl := strings.IndexByte(s, '\n')
		if nl < 0 {
			return false
		}
		s = s[nl+1:]
	}
	return strings.HasPrefix(strings.ToUpper(s), "SELECT")
}

// SplitStatements splits a SQL script on top-level semicolons, respecting
// string literals and line comments. Empty statements are dropped.
func SplitStatements(script string) ([]string, error) {
	var (
		stmts []string
		start int
	)
	inString := false
	i := 0
	for i < len(script) {
		c := script[i]
		switch {
		case inString:
			if c == '\'' {
				if i+1 < len(script) && script[i+1] == '\'' {
					i++ // escaped quote
				} else {
					inString = false
				}
			}
		case c == '\'':
			inString = true
		case c == '-' && i+1 < len(script) && script[i+1] == '-':
			for i < len(script) && script[i] != '\n' {
				i++
			}
			continue
		case c == ';':
			s := strings.TrimSpace(script[start:i])
			if s != "" {
				stmts = append(stmts, s)
			}
			start = i + 1
		}
		i++
	}
	if inString {
		return nil, &SyntaxError{Pos: len(script), Msg: "unterminated string literal in script"}
	}
	if s := strings.TrimSpace(script[start:]); s != "" {
		stmts = append(stmts, s)
	}
	return stmts, nil
}

// Checkpoint image framing. An image is a compacted WAL: the WAL's header
// layout under its own magic, then WAL record frames that rebuild the
// database, then an end frame. The records are one CREATE TABLE per table in
// creation order, so foreign-key parents precede children, and per table
// parameterised multi-row INSERTs of at most imageChunkRows rows, in
// power-of-two row counts, so one table shape has at most nine texts and
// they stay in the statement cache. The end frame's payload is mark[4]
// records[4] generation[8]: it carries the record count, so an image cut at
// a frame boundary is not a smaller database, and repeats the header's
// generation, which no frame CRC covers otherwise.
const (
	imageMagic     = "GIMG"
	imageVersion   = 1
	imageEndMark   = walBatchMark - 1 // a length no statement record can carry, like walBatchMark
	imageEndSize   = walFrameSize + 16
	imageChunkRows = 256
)

// imageLocked encodes the database as a checkpoint image of generation gen,
// in one buffer of exactly its size. Callers hold mu.
func (db *DB) imageLocked(gen uint64) []byte {
	var recs []imageRecord
	for _, key := range db.order {
		t := db.tables[key]
		recs = append(recs, imageRecord{sql: createTableSQL(&t.def)})
		for rows := t.rows; len(rows) > 0; {
			n := imageChunk(rows)
			recs = append(recs, imageRecord{insertTemplate(t.def.Name, len(t.def.Columns), n), rows[:n]})
			rows = rows[n:]
		}
	}
	size := walHeaderSize + imageEndSize
	for _, r := range recs {
		size += r.size()
	}
	buf := appendFileHeader(make([]byte, 0, size), imageMagic, imageVersion, gen)
	for _, r := range recs {
		buf = r.appendFrame(buf)
	}
	head := len(buf)
	buf = binary.LittleEndian.AppendUint32(openWALFrame(buf), imageEndMark)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	return closeWALFrame(binary.LittleEndian.AppendUint64(buf, gen), head)
}

// imageRecord is one statement record of an image: its text and the rows
// whose values, in order, bind its placeholders.
type imageRecord struct {
	sql  string
	rows [][]Value
}

func (r imageRecord) size() int {
	n := walFrameSize + walPayloadSize(r.sql, nil)
	for _, row := range r.rows {
		n += walValuesSize(row)
	}
	return n
}

// appendFrame frames the record as appendWALFrame frames its text and
// flattened rows, without flattening them.
func (r imageRecord) appendFrame(dst []byte) []byte {
	head, argc := len(dst), 0
	for _, row := range r.rows {
		argc += len(row)
	}
	dst = appendWALPayloadHead(openWALFrame(dst), r.sql, argc)
	for _, row := range r.rows {
		dst = appendWALValues(dst, row)
	}
	return closeWALFrame(dst, head)
}

// imageChunk is how many of rows the next INSERT record carries: the
// largest power of two within imageChunkRows and len(rows), halved while
// their values would fill more than half of a frame replay accepts.
func imageChunk(rows [][]Value) int {
	n := 1 << (bits.Len(uint(min(len(rows), imageChunkRows))) - 1)
	for n > 1 && (imageRecord{rows: rows[:n]}).size() > maxWALPayload/2 {
		n /= 2
	}
	return n
}

// insertTemplate is "INSERT INTO table VALUES (?, ?), (?, ?)" for rows rows
// of cols columns: the text the store's bulk writes issue for the same row
// count, so the two share a statement-cache entry.
func insertTemplate(table string, cols, rows int) string {
	row := "(" + strings.Repeat("?, ", cols-1) + "?)"
	return "INSERT INTO " + table + " VALUES " + row + strings.Repeat(", "+row, rows-1)
}

// loadImageData applies a checkpoint image to db, an empty database, and
// returns the image's generation. Records go through WAL replay, but unlike
// a WAL an image has no torn tail to forgive: it becomes visible only by an
// atomic rename, so any damage (a bad CRC, a short frame, a missing or wrong
// end frame, trailing bytes) fails the load. Files that are not images, SQL
// scripts included, are rejected by name.
func (db *DB) loadImageData(data []byte) (uint64, error) {
	if len(data) < walHeaderSize || string(data[:4]) != imageMagic {
		return 0, fmt.Errorf("not a goofi checkpoint image (no %q header; SQL-script images are not read)", imageMagic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != imageVersion {
		return 0, fmt.Errorf("unsupported checkpoint image version %d", v)
	}
	gen := binary.LittleEndian.Uint64(data[8:])
	if len(data) < walHeaderSize+imageEndSize {
		return 0, errors.New("checkpoint image truncated: no end frame")
	}
	bodyEnd := len(data) - imageEndSize
	end, payload := data[bodyEnd:], data[bodyEnd+walFrameSize:]
	if binary.LittleEndian.Uint32(end) != imageEndSize-walFrameSize ||
		binary.LittleEndian.Uint32(end[4:]) != crc32.ChecksumIEEE(payload) ||
		binary.LittleEndian.Uint32(payload) != imageEndMark ||
		binary.LittleEndian.Uint64(payload[8:]) != gen {
		return 0, errors.New("checkpoint image truncated or damaged: no intact end frame")
	}
	valid, n, err := replayWALFile(bytes.NewReader(data[walHeaderSize:bodyEnd]), db.applyWALRecord)
	if err != nil {
		return 0, err
	}
	if want := binary.LittleEndian.Uint32(payload[4:]); valid != int64(bodyEnd) || n != int64(want) {
		return 0, fmt.Errorf("checkpoint image damaged: %d of %d records intact", n, want)
	}
	return gen, nil
}

// writeFileDurable atomically and durably replaces path with data through
// the database's VFS — see vfs.WriteFileDurable for the fsync protocol.
func (db *DB) writeFileDurable(path string, data []byte) error {
	return vfs.WriteFileDurable(db.fsys(), path, data)
}

// fsys returns the database's filesystem, defaulting to the real one for DBs
// constructed before the seam existed (zero values in tests).
func (db *DB) fsys() vfs.FS {
	if db.fs == nil {
		return vfs.OS{}
	}
	return db.fs
}

// Save writes the database image durably and atomically to path. On a
// WAL-backed database saving to its own path this is a checkpoint: the WAL is
// folded into the image and truncated. Every successful save advances the
// image generation, so a sidecar WAL left beside path by an earlier
// incarnation is recognised as stale and never replayed over data it is
// already part of. A failed save rolls the generation bump back: the on-disk
// image still carries the old generation, and leaving the in-memory counter
// ahead would make the *next* save write an image whose generation skips a
// step while the sidecar WAL still names the current one.
func (db *DB) Save(path string) error {
	if db.wal != nil && path == db.path {
		return db.Checkpoint()
	}
	db.mu.Lock()
	db.generation++
	gen := db.generation
	data := db.imageLocked(gen)
	db.mu.Unlock()
	if err := db.writeFileDurable(path, data); err != nil {
		db.mu.Lock()
		// Roll back only if no concurrent save advanced past us.
		if db.generation == gen {
			db.generation = gen - 1
		}
		db.mu.Unlock()
		return fmt.Errorf("save database: %w", err)
	}
	return nil
}

// loadImage reads the checkpoint image at path into db and returns its
// generation. A missing or empty file is an empty generation-0 database: an
// empty file is what a crash leaves when the image's rename was durable but
// a lying fsync dropped its data.
func (db *DB) loadImage(path string) (uint64, error) {
	data, err := db.fsys().ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("open database: %w", err)
	}
	if len(data) == 0 {
		return 0, nil
	}
	gen, err := db.loadImageData(data)
	if err != nil {
		return 0, fmt.Errorf("open database %s: %w", path, err)
	}
	return gen, nil
}

// applyWALRecord executes one recovered statement without re-logging it.
func (db *DB) applyWALRecord(sql string, args []Value) error {
	_, err := db.exec(sql, args, false)
	return err
}

// Open loads a database previously written with Save. A missing file yields
// an empty database, so first runs need no special casing. If a sidecar
// write-ahead log (<path>.wal) from the image's generation exists — a WAL
// session that crashed before its final checkpoint — its records are replayed
// so every reader sees the crash-consistent state; the log itself is left for
// the next WAL open to truncate.
func Open(path string) (*DB, error) {
	return OpenFS(path, vfs.OS{})
}

// OpenFS is Open over an explicit filesystem — the storage-fault seam. Tests
// and `goofi run -storage-chaos` pass a vfs.Faulty; everything else uses
// vfs.OS via Open.
func OpenFS(path string, fsys vfs.FS) (*DB, error) {
	db := New()
	db.path = path
	db.fs = fsys
	gen, err := db.loadImage(path)
	if err != nil {
		return nil, err
	}
	db.generation = gen
	if _, err := replaySidecarWAL(fsys, path, gen, db.applyWALRecord); err != nil {
		return nil, fmt.Errorf("open database %s: %w", path, err)
	}
	return db, nil
}

// OpenWithWAL opens the database at path in write-ahead-logging mode: the
// image is loaded, a matching-generation <path>.wal is replayed (recovering
// anything a crash left unfolded) with any torn tail truncated, and every
// subsequent mutation is appended to the log by a group-commit goroutine
// before Exec returns. Close flushes and detaches the log; Save (to path) and
// Checkpoint fold it into the image.
func OpenWithWAL(path string, opts WALOptions) (*DB, error) {
	return OpenWithWALFS(path, vfs.OS{}, opts)
}

// OpenWithWALFS is OpenWithWAL over an explicit filesystem: image, WAL
// sidecar, checkpoints and group commits all route through fsys.
func OpenWithWALFS(path string, fsys vfs.FS, opts WALOptions) (*DB, error) {
	db := New()
	db.path = path
	db.fs = fsys
	gen, err := db.loadImage(path)
	if err != nil {
		return nil, err
	}
	db.generation = gen
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 1
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = DefaultCheckpointBytes
	}
	w, err := openWAL(fsys, path+".wal", gen, opts, db.applyWALRecord)
	if err != nil {
		return nil, fmt.Errorf("open database %s: %w", path, err)
	}
	db.wal = w
	db.walOpts = w.opts
	go w.run()
	return db, nil
}
