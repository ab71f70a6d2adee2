package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"goofi/internal/obsv"
	"goofi/internal/vfs"
)

// Exported error values callers can match with errors.Is.
var (
	// ErrNoSuchTable is returned when a statement names an unknown table.
	ErrNoSuchTable = errors.New("no such table")
	// ErrTableExists is returned by CREATE TABLE for an existing table.
	ErrTableExists = errors.New("table already exists")
	// ErrConstraint is returned when a NOT NULL, UNIQUE or PRIMARY KEY
	// constraint is violated.
	ErrConstraint = errors.New("constraint violation")
	// ErrForeignKey is returned when a FOREIGN KEY constraint is violated.
	// The paper (§2.3) relies on these to keep campaign data consistent.
	ErrForeignKey = errors.New("foreign key constraint violation")
)

// DB is an in-memory relational database with optional file persistence.
// All methods are safe for concurrent use.
//
// A DB opened with OpenWithWAL additionally appends every mutating statement
// to a write-ahead log before Exec returns, replays that log on open, and
// folds it into the checkpoint image on Checkpoint — see wal.go.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table // keyed by lower-cased name
	order  []string          // creation order of lower-cased names

	// stmts caches parsed statements by text: sharedStmts for every DB
	// from New. Immutable once set.
	stmts *stmtCache

	// generation numbers the image this in-memory state extends; it is
	// guarded by mu and advanced by every Save/Checkpoint.
	generation uint64
	// path is the image file this DB was opened from ("" for New()).
	path string
	// fs is the filesystem every file operation routes through; nil means
	// vfs.OS (see fsys). Immutable once set by the Open* constructors.
	fs vfs.FS

	// WAL state; wal is nil outside WAL mode and immutable once set.
	wal     *wal
	walOpts WALOptions
	// lastWALBatch is the most recent commit batch acknowledged to this DB's
	// callers, and lastWALSynced whether that batch ended in an fsync —
	// provenance for "which group commit made my row durable".
	lastWALBatch  atomic.Int64
	lastWALSynced atomic.Bool
	// ckptMu serialises checkpoints (explicit and size-triggered).
	ckptMu sync.Mutex
}

// table holds the definition and rows of one table.
type table struct {
	def     createTableStmt
	rows    [][]Value
	pkIndex map[string]int // PK key -> index in rows; nil when table has no PK
	colIdx  map[string]int // lower-cased column name -> position
	pkCols  []int          // positions of the PRIMARY KEY columns
	fks     []fkRef        // def.ForeignKeys, resolved to column positions
}

// fkRef is one FOREIGN KEY constraint with its columns resolved to
// positions when the table is built. A referenced table cannot be dropped
// while a child references it, so the positions stay valid.
type fkRef struct {
	def     foreignKey
	parent  string // lower-cased name of the referenced table
	cols    []int  // positions in the child row
	refCols []int  // positions in the parent row
	toPK    bool   // the constraint references the parent's full PRIMARY KEY
}

// Result reports the effect of a non-query statement.
type Result struct {
	// RowsAffected counts rows inserted, updated or deleted.
	RowsAffected int64
}

// Rows is the fully materialised result of a query.
type Rows struct {
	// Columns holds the output column names in order.
	Columns []string
	// Data holds one slice per result row.
	Data [][]Value
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// New creates an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table), stmts: sharedStmts}
}

// Exec parses and executes a statement that does not return rows.
// Parameters referenced with ? bind to args in order. On a WAL-backed
// database a state-changing statement is also appended to the log, and Exec
// returns only once the record is acknowledged per the sync policy — under
// the default strict policy, once it is fsynced.
func (db *DB) Exec(query string, args ...Value) (Result, error) {
	return db.exec(query, args, true)
}

func (db *DB) exec(query string, args []Value, logWAL bool) (Result, error) {
	st, err := db.stmts.parse(query)
	if err != nil {
		return Result{}, fmt.Errorf("exec %q: %w", abbreviate(query), err)
	}
	db.mu.Lock()
	res, mutated, err := db.execStmtLocked(st, args, query)
	// Enqueue under mu so WAL order matches execution order; wait for the
	// group commit after unlocking so concurrent committers coalesce.
	var ack chan walAck
	if err == nil && mutated && logWAL && db.wal != nil {
		ack = db.wal.append(query, args)
	}
	db.mu.Unlock()
	if ack != nil {
		if werr := db.awaitWAL(ack); werr != nil {
			return res, werr
		}
	}
	return res, err
}

// Stmt is one statement of a batch: SQL text and the parameters its ?
// placeholders bind to.
type Stmt struct {
	SQL  string
	Args []Value
}

// ExecBatch executes stmts in order as one atomic store write. Only CREATE
// TABLE, INSERT and DELETE can be batched. The batch is all-or-nothing in
// memory: a failing statement undoes the ones before it, and nothing is
// logged. On a WAL-backed database the statements that changed state are
// then appended as one unit, one group commit and, under the default strict
// policy, one fsync, and ExecBatch returns once that unit is acknowledged.
// Replay applies a logged batch only when every one of its frames is intact,
// so a crash never recovers part of it.
func (db *DB) ExecBatch(stmts []Stmt) error {
	var buf [4]statement // most batches are short: parse into the stack
	parsed := buf[:0]
	for _, s := range stmts {
		st, err := db.stmts.parse(s.SQL)
		if err != nil {
			return fmt.Errorf("exec %q: %w", abbreviate(s.SQL), err)
		}
		switch st.(type) {
		case *createTableStmt, *insertStmt, *deleteStmt:
		default:
			return fmt.Errorf("exec %q: only CREATE TABLE, INSERT and DELETE can be batched", abbreviate(s.SQL))
		}
		parsed = append(parsed, st)
	}
	db.mu.Lock()
	var (
		undo  []batchUndo
		quiet []bool // quiet[i]: stmts[i] changed nothing; nil while none did
	)
	for i, st := range parsed {
		// The last statement needs no undo: failing, it undoes itself.
		last := i == len(parsed)-1
		var u batchUndo
		if !last {
			u = db.undoFor(st)
		}
		_, mutated, err := db.execStmtLocked(st, stmts[i].Args, stmts[i].SQL)
		if err != nil {
			db.revert(undo)
			db.mu.Unlock()
			return fmt.Errorf("exec %q: %w", abbreviate(stmts[i].SQL), err)
		}
		switch {
		case !mutated:
			if quiet == nil {
				quiet = make([]bool, len(stmts))
			}
			quiet[i] = true
		case !last:
			undo = append(undo, u)
		}
	}
	logged := stmts
	if quiet != nil {
		logged = nil
		for i, q := range quiet {
			if !q {
				logged = append(logged, stmts[i])
			}
		}
	}
	var ack chan walAck
	if len(logged) > 0 && db.wal != nil {
		ack = db.wal.appendBatch(logged)
	}
	db.mu.Unlock()
	if ack != nil {
		return db.awaitWAL(ack)
	}
	return nil
}

// batchUndo reverts one statement of a failing batch. Each statement kind
// has its own step: a CREATE TABLE drops the new table, an INSERT truncates
// the rows it appended, and a DELETE, which replaces a table's rows slice
// and primary-key index rather than mutating them, restores the old ones.
type batchUndo struct {
	t       *table
	created string         // CREATE TABLE: lower-cased name of the new table
	deleted bool           // DELETE: rows and pkIndex hold the table's old state
	rows    [][]Value      // DELETE
	pkIndex map[string]int // DELETE
	n       int            // INSERT: the table's row count before it
}

// undoFor records what reverting st will need, before st runs.
func (db *DB) undoFor(st statement) batchUndo {
	switch s := st.(type) {
	case *createTableStmt:
		return batchUndo{created: strings.ToLower(s.Name)}
	case *insertStmt:
		if t := db.tables[strings.ToLower(s.Table)]; t != nil {
			return batchUndo{t: t, n: len(t.rows)}
		}
	case *deleteStmt:
		if t := db.tables[strings.ToLower(s.Table)]; t != nil {
			return batchUndo{t: t, deleted: true, rows: t.rows, pkIndex: t.pkIndex}
		}
	}
	return batchUndo{}
}

// revert undoes the executed statements of a batch, last first, so each
// step sees the state its statement left.
func (db *DB) revert(undo []batchUndo) {
	for i := len(undo) - 1; i >= 0; i-- {
		switch u := undo[i]; {
		case u.created != "":
			delete(db.tables, u.created)
			db.order = db.order[:len(db.order)-1]
		case u.deleted:
			u.t.rows, u.t.pkIndex = u.rows, u.pkIndex
		default:
			u.t.truncateRows(u.n)
		}
	}
}

// awaitWAL waits for the group commit that carries a logged statement or
// batch and records which batch acknowledged it.
func (db *DB) awaitWAL(ack chan walAck) error {
	a := <-ack
	if a.err != nil {
		return a.err
	}
	db.lastWALBatch.Store(a.batch)
	db.lastWALSynced.Store(a.synced)
	db.maybeAutoCheckpoint()
	return nil
}

// LastWALBatch reports the WAL group-commit batch that acknowledged this DB's
// most recent logged statement, and whether that batch was fsynced before the
// acknowledgement. Zero batch means no statement has been WAL-committed (or
// the DB runs without a WAL).
func (db *DB) LastWALBatch() (batch int64, synced bool) {
	return db.lastWALBatch.Load(), db.lastWALSynced.Load()
}

// execStmtLocked dispatches a parsed statement under db.mu and reports
// whether it changed state — only state changes are worth a WAL record, so
// no-ops (CREATE IF NOT EXISTS of an existing table, a DELETE matching
// nothing) don't grow the log on every open.
func (db *DB) execStmtLocked(st statement, args []Value, query string) (Result, bool, error) {
	switch s := st.(type) {
	case *createTableStmt:
		_, existed := db.tables[strings.ToLower(s.Name)]
		err := db.execCreate(s)
		return Result{}, err == nil && !existed, err
	case *dropTableStmt:
		_, existed := db.tables[strings.ToLower(s.Name)]
		err := db.execDrop(s)
		return Result{}, err == nil && existed, err
	case *insertStmt:
		res, err := db.execInsert(s, args)
		return res, err == nil && res.RowsAffected > 0, err
	case *updateStmt:
		res, err := db.execUpdate(s, args)
		return res, err == nil && res.RowsAffected > 0, err
	case *deleteStmt:
		res, err := db.execDelete(s, args)
		return res, err == nil && res.RowsAffected > 0, err
	case *selectStmt:
		return Result{}, false, fmt.Errorf("exec %q: use Query for SELECT", abbreviate(query))
	default:
		return Result{}, false, fmt.Errorf("exec %q: unsupported statement", abbreviate(query))
	}
}

// Checkpoint folds the write-ahead log into the image: the current state
// is durably written to the database path at the next generation and the log
// is truncated to a fresh header carrying that generation. A crash anywhere
// in between is safe — until the image rename lands the old image + old WAL
// is the recovery state, and after it the leftover old-generation WAL is
// recognised as stale and discarded.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("sqldb: checkpoint: database has no write-ahead log")
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointNow()
}

// checkpointNow is Checkpoint's body; callers hold ckptMu.
func (db *DB) checkpointNow() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	gen := db.generation + 1
	if err := db.writeFileDurable(db.path, db.imageLocked(gen)); err != nil {
		return fmt.Errorf("checkpoint database: %w", err)
	}
	// Holding mu means nothing can be enqueued between the image write and
	// the log reset, so every record the reset discards is in the image.
	if err := db.wal.reset(gen); err != nil {
		return fmt.Errorf("checkpoint database: %w", err)
	}
	db.generation = gen
	return nil
}

// maybeAutoCheckpoint runs a checkpoint when the log has outgrown the
// configured threshold. Best-effort: if another checkpoint is already
// running it backs off, and a failure is recorded as a counter rather than
// surfaced — the log keeps the data safe either way, just un-compacted.
func (db *DB) maybeAutoCheckpoint() {
	limit := db.walOpts.CheckpointBytes
	if db.wal == nil || limit <= 0 || db.wal.size.Load() < limit {
		return
	}
	if !db.ckptMu.TryLock() {
		return
	}
	defer db.ckptMu.Unlock()
	if db.wal.size.Load() < limit {
		return // a racing checkpoint already folded it
	}
	if err := db.checkpointNow(); err != nil {
		db.wal.rec.Load().Count("wal.checkpoint-errors", 1)
	}
}

// Close flushes and detaches the write-ahead log, fsyncing anything still
// pending. On a non-WAL database it is a no-op. The DB remains readable;
// further mutations fail.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.close()
}

// SetObserver attaches a recorder to the WAL's group-commit loop (wal-append
// phase spans and wal.* counters). No-op outside WAL mode; safe to call at
// any time, including with nil to detach.
func (db *DB) SetObserver(rec *obsv.Recorder) {
	if db.wal != nil {
		db.wal.rec.Store(rec)
	}
}

// WALEnabled reports whether this database was opened with OpenWithWAL.
func (db *DB) WALEnabled() bool { return db.wal != nil }

// WALStats returns a snapshot of write-ahead log activity (zero outside WAL
// mode, except Generation which is always current).
func (db *DB) WALStats() WALStats {
	var s WALStats
	if db.wal != nil {
		s = db.wal.stats()
	}
	db.mu.RLock()
	s.Generation = db.generation
	db.mu.RUnlock()
	return s
}

// Query parses and executes a SELECT, returning the materialised rows.
func (db *DB) Query(query string, args ...Value) (*Rows, error) {
	st, err := db.stmts.parse(query)
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", abbreviate(query), err)
	}
	sel, ok := st.(*selectStmt)
	if !ok {
		return nil, fmt.Errorf("query %q: not a SELECT statement", abbreviate(query))
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	rows, err := db.execSelect(sel, args)
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", abbreviate(query), err)
	}
	return rows, nil
}

// QueryRow runs a query expected to return exactly one row and returns it.
func (db *DB) QueryRow(query string, args ...Value) ([]Value, error) {
	rows, err := db.Query(query, args...)
	if err != nil {
		return nil, err
	}
	if rows.Len() != 1 {
		return nil, fmt.Errorf("query %q: expected 1 row, got %d", abbreviate(query), rows.Len())
	}
	return rows.Data[0], nil
}

// Tables returns the table names in creation order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.order))
	for _, name := range db.order {
		out = append(out, db.tables[name].def.Name)
	}
	return out
}

// TableSchema describes a table for introspection.
type TableSchema struct {
	Name        string
	Columns     []ColumnSchema
	PrimaryKey  []string
	ForeignKeys []ForeignKeySchema
}

// ColumnSchema describes one column.
type ColumnSchema struct {
	Name    string
	Type    ColType
	NotNull bool
	Unique  bool
}

// ForeignKeySchema describes one foreign-key constraint.
type ForeignKeySchema struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// Schema returns the schema of the named table.
func (db *DB) Schema(name string) (TableSchema, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return TableSchema{}, fmt.Errorf("schema: %w: %s", ErrNoSuchTable, name)
	}
	ts := TableSchema{Name: t.def.Name}
	for _, c := range t.def.Columns {
		ts.Columns = append(ts.Columns, ColumnSchema{Name: c.Name, Type: c.Type, NotNull: c.NotNull, Unique: c.Unique})
	}
	ts.PrimaryKey = append(ts.PrimaryKey, t.def.PrimaryKey...)
	for _, fk := range t.def.ForeignKeys {
		ts.ForeignKeys = append(ts.ForeignKeys, ForeignKeySchema{
			Columns:    append([]string(nil), fk.Columns...),
			RefTable:   fk.RefTable,
			RefColumns: append([]string(nil), fk.RefColumns...),
		})
	}
	return ts, nil
}

// RowCount returns the number of rows stored in the named table.
func (db *DB) RowCount(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("rowcount: %w: %s", ErrNoSuchTable, name)
	}
	return len(t.rows), nil
}

func abbreviate(q string) string {
	q = strings.Join(strings.Fields(q), " ")
	if len(q) > 60 {
		return q[:57] + "..."
	}
	return q
}

// --- DDL execution ---

func (db *DB) execCreate(s *createTableStmt) error {
	key := strings.ToLower(s.Name)
	if _, exists := db.tables[key]; exists {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("create table: %w: %s", ErrTableExists, s.Name)
	}
	colIdx := make(map[string]int, len(s.Columns))
	for i, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if _, dup := colIdx[lc]; dup {
			return fmt.Errorf("create table %s: duplicate column %s", s.Name, c.Name)
		}
		colIdx[lc] = i
	}
	t := &table{def: *s, colIdx: colIdx}
	for _, pk := range s.PrimaryKey {
		i, ok := colIdx[strings.ToLower(pk)]
		if !ok {
			return fmt.Errorf("create table %s: PRIMARY KEY names unknown column %s", s.Name, pk)
		}
		t.pkCols = append(t.pkCols, i)
	}
	for _, fk := range s.ForeignKeys {
		ref := fkRef{def: fk, parent: strings.ToLower(fk.RefTable)}
		for _, c := range fk.Columns {
			i, ok := colIdx[strings.ToLower(c)]
			if !ok {
				return fmt.Errorf("create table %s: FOREIGN KEY names unknown column %s", s.Name, c)
			}
			ref.cols = append(ref.cols, i)
		}
		// Self-references (e.g. LoggedSystemState.parentExperiment) resolve
		// against the table being created.
		parent := t
		if !strings.EqualFold(fk.RefTable, s.Name) {
			p, ok := db.tables[ref.parent]
			if !ok {
				return fmt.Errorf("create table %s: %w: referenced table %s", s.Name, ErrNoSuchTable, fk.RefTable)
			}
			parent = p
		}
		for _, rc := range fk.RefColumns {
			i, ok := parent.colIdx[strings.ToLower(rc)]
			if !ok {
				return fmt.Errorf("create table %s: FOREIGN KEY references unknown column %s.%s", s.Name, fk.RefTable, rc)
			}
			ref.refCols = append(ref.refCols, i)
		}
		ref.toPK = sameColumns(fk.RefColumns, parent.def.PrimaryKey)
		t.fks = append(t.fks, ref)
	}
	if len(s.PrimaryKey) > 0 {
		t.pkIndex = make(map[string]int)
	}
	db.tables[key] = t
	db.order = append(db.order, key)
	return nil
}

func (db *DB) execDrop(s *dropTableStmt) error {
	key := strings.ToLower(s.Name)
	if _, ok := db.tables[key]; !ok {
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("drop table: %w: %s", ErrNoSuchTable, s.Name)
	}
	// Refuse to drop a table that other tables reference.
	for _, other := range db.tables {
		if strings.EqualFold(other.def.Name, s.Name) {
			continue
		}
		for _, fk := range other.def.ForeignKeys {
			if strings.EqualFold(fk.RefTable, s.Name) {
				return fmt.Errorf("drop table %s: %w: referenced by %s", s.Name, ErrForeignKey, other.def.Name)
			}
		}
	}
	delete(db.tables, key)
	for i, n := range db.order {
		if n == key {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	return nil
}
