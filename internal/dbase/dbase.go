// Package dbase implements the GOOFI database layer (paper §2.3, Fig. 4):
// the TargetSystemData, CampaignData and LoggedSystemState tables, related
// by enforced foreign keys, stored in the embedded SQL engine of
// internal/sqldb.
//
// Two tables extend the figure's minimum: FaultLocation normalises the
// per-target fault-location list the paper stores "in the TargetSystemData
// table" (§3.1), and AnalysisResult holds the per-experiment classification
// the analysis phase produces so that the aggregate queries of §3.4 can run
// as plain SQL (including the generated analysis scripts of §4).
package dbase

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"goofi/internal/obsv"
	"goofi/internal/sqldb"
	"goofi/internal/vfs"
)

// storageRetryLimit bounds how many times an open or save retries a storage
// fault that identifies itself as transient (vfs.IsTransient). The campaign
// store must ride out a flaky disk the way the runner rides out a flaky
// target: a -storage-chaos run with transient-only faults completes exactly
// like a fault-free one.
const storageRetryLimit = 3

// retryTransient runs fn, retrying transient injected storage faults a
// bounded number of times; any other failure surfaces immediately.
func retryTransient(fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || attempt >= storageRetryLimit || !vfs.IsTransient(err) {
			return err
		}
	}
}

// ErrNotFound is returned when a requested row does not exist.
var ErrNotFound = errors.New("dbase: not found")

// Store wraps the campaign database.
type Store struct {
	db   *sqldb.DB
	path string // empty for in-memory stores
	rec  *obsv.Recorder
}

// SetRecorder attaches an observability recorder: every campaign-path store
// call is then timed into a "store.<Op>" latency histogram, with call and
// row counters alongside, and a WAL-backed store's group-commit loop reports
// its wal-append phase and wal.* counters. A nil recorder (the default)
// disables it at zero cost.
func (s *Store) SetRecorder(rec *obsv.Recorder) {
	s.rec = rec
	s.db.SetObserver(rec)
}

// noopRows is the shared disabled-path closure of timeOp, so an
// uninstrumented store call allocates nothing.
var noopRows = func(int) {}

// timeOp starts timing one store call; the returned func records the
// latency and the number of rows moved. Use as
// `defer s.timeOp("PutExperiment")(1)` (the timer starts where defer
// evaluates its operands) or capture it when the row count is only known at
// the end.
func (s *Store) timeOp(op string) func(rows int) {
	if s.rec == nil {
		return noopRows
	}
	start := time.Now()
	return func(rows int) {
		s.rec.ObserveSince("store."+op, start)
		s.rec.Count("store.calls", 1)
		s.rec.Count("store.rows", int64(rows))
	}
}

// schema is the GOOFI schema DDL. Order matters: FK parents first.
const schema = `
CREATE TABLE IF NOT EXISTS TargetSystemData (
	testCardName TEXT PRIMARY KEY,
	description  TEXT,
	memSize      INTEGER NOT NULL,
	romSize      INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS FaultLocation (
	testCardName TEXT NOT NULL,
	locationName TEXT NOT NULL,
	chainName    TEXT NOT NULL,
	firstBit     INTEGER NOT NULL,
	width        INTEGER NOT NULL,
	writable     INTEGER NOT NULL,
	PRIMARY KEY (testCardName, locationName),
	FOREIGN KEY (testCardName) REFERENCES TargetSystemData (testCardName)
);
CREATE TABLE IF NOT EXISTS CampaignData (
	campaignName   TEXT PRIMARY KEY,
	testCardName   TEXT NOT NULL,
	workload       TEXT NOT NULL,
	technique      TEXT NOT NULL,
	faultModel     TEXT NOT NULL,
	locationFilter TEXT NOT NULL,
	triggerSpec    TEXT,
	nExperiments   INTEGER NOT NULL,
	seed           INTEGER NOT NULL,
	injectMinTime  INTEGER NOT NULL,
	injectMaxTime  INTEGER NOT NULL,
	maxCycles      INTEGER NOT NULL,
	maxIterations  INTEGER NOT NULL,
	detailMode     INTEGER NOT NULL DEFAULT 0,
	envSimulator   TEXT,
	notes          TEXT,
	FOREIGN KEY (testCardName) REFERENCES TargetSystemData (testCardName)
);
CREATE TABLE IF NOT EXISTS LoggedSystemState (
	experimentName    TEXT PRIMARY KEY,
	parentExperiment  TEXT,
	campaignName      TEXT NOT NULL,
	experimentData    TEXT,
	terminationReason TEXT,
	mechanism         TEXT,
	cycles            INTEGER,
	iterations        INTEGER,
	stateVector       BLOB,
	FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName),
	FOREIGN KEY (parentExperiment) REFERENCES LoggedSystemState (experimentName)
);
CREATE TABLE IF NOT EXISTS AnalysisResult (
	experimentName TEXT PRIMARY KEY,
	campaignName   TEXT NOT NULL,
	outcome        TEXT NOT NULL,
	mechanism      TEXT,
	FOREIGN KEY (experimentName) REFERENCES LoggedSystemState (experimentName),
	FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
);
CREATE TABLE IF NOT EXISTS CampaignRunMetrics (
	campaignName      TEXT NOT NULL,
	runId             INTEGER NOT NULL,
	seq               INTEGER NOT NULL,
	isFinal           INTEGER NOT NULL,
	elapsedNs         INTEGER NOT NULL,
	done              INTEGER NOT NULL,
	total             INTEGER NOT NULL,
	skipped           INTEGER NOT NULL,
	retries           INTEGER NOT NULL,
	hangs             INTEGER NOT NULL,
	quarantined       INTEGER NOT NULL,
	workers           INTEGER NOT NULL,
	storeCalls        INTEGER NOT NULL,
	storeRows         INTEGER NOT NULL,
	storeP95Ns        INTEGER NOT NULL,
	phaseInitNs       INTEGER NOT NULL,
	phasePlanNs       INTEGER NOT NULL,
	phaseWorkloadNs   INTEGER NOT NULL,
	phaseScanOutNs    INTEGER NOT NULL,
	phaseScanInNs     INTEGER NOT NULL,
	phaseMemoryNs     INTEGER NOT NULL,
	phaseCheckpointSaveNs    INTEGER NOT NULL,
	phaseCheckpointRestoreNs INTEGER NOT NULL,
	phaseRetryNs      INTEGER NOT NULL,
	phaseFlushNs      INTEGER NOT NULL,
	phaseWalAppendNs  INTEGER NOT NULL,
	PRIMARY KEY (campaignName, runId, seq),
	FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
);
CREATE TABLE IF NOT EXISTS ExperimentTraceEvents (
	campaignName   TEXT NOT NULL,
	runId          INTEGER NOT NULL,
	seq            INTEGER NOT NULL,
	timeNs         INTEGER NOT NULL,
	durNs          INTEGER NOT NULL,
	kind           TEXT NOT NULL,
	shard          INTEGER NOT NULL,
	experimentName TEXT,
	expIndex       INTEGER NOT NULL,
	attempt        INTEGER NOT NULL,
	tid            INTEGER NOT NULL,
	detail         TEXT,
	PRIMARY KEY (campaignName, runId, seq),
	FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
);
`

// schemaBatch is schema split into its CREATE TABLE statements, installed
// as one batch: one WAL commit on a fresh store, none on a reopen, where
// every table already exists.
var schemaBatch = func() []sqldb.Stmt {
	texts, err := sqldb.SplitStatements(schema)
	if err != nil {
		panic(err)
	}
	batch := make([]sqldb.Stmt, len(texts))
	for i, t := range texts {
		batch[i].SQL = t
	}
	return batch
}()

// NewMemoryStore builds a fresh in-memory store with the schema installed.
func NewMemoryStore() (*Store, error) {
	s := &Store{db: sqldb.New()}
	if err := s.db.ExecBatch(schemaBatch); err != nil {
		return nil, fmt.Errorf("dbase: install schema: %w", err)
	}
	return s, nil
}

// OpenStore loads (or creates) a store backed by a database file.
func OpenStore(path string) (*Store, error) {
	return OpenStoreFS(path, vfs.OS{})
}

// OpenStoreFS is OpenStore over an explicit filesystem — the storage-fault
// seam. Transient open faults (a vfs.Faulty read error mid-load) are retried:
// each attempt rebuilds the database from scratch, so a failed partial load
// leaves nothing behind.
func OpenStoreFS(path string, fsys vfs.FS) (*Store, error) {
	var db *sqldb.DB
	err := retryTransient(func() error {
		var oerr error
		db, oerr = sqldb.OpenFS(path, fsys)
		return oerr
	})
	if err != nil {
		return nil, fmt.Errorf("dbase: %w", err)
	}
	s := &Store{db: db, path: path}
	if err := s.db.ExecBatch(schemaBatch); err != nil {
		return nil, fmt.Errorf("dbase: install schema: %w", err)
	}
	return s, nil
}

// OpenStoreWAL loads (or creates) a file-backed store in write-ahead-logging
// mode: every mutation is appended to <path>.wal by a group-commit loop
// before the store call returns, so flush cost is O(batch) instead of
// O(database) and acknowledged rows survive a crash. Save becomes a
// checkpoint (fold the log into the image); call Close when done.
func OpenStoreWAL(path string, opts sqldb.WALOptions) (*Store, error) {
	return OpenStoreWALFS(path, vfs.OS{}, opts)
}

// OpenStoreWALFS is OpenStoreWAL over an explicit filesystem: image load,
// WAL replay, group commits and checkpoints all route through fsys, and
// transient open faults are retried as in OpenStoreFS.
func OpenStoreWALFS(path string, fsys vfs.FS, opts sqldb.WALOptions) (*Store, error) {
	var db *sqldb.DB
	err := retryTransient(func() error {
		var oerr error
		db, oerr = sqldb.OpenWithWALFS(path, fsys, opts)
		return oerr
	})
	if err != nil {
		return nil, fmt.Errorf("dbase: %w", err)
	}
	s := &Store{db: db, path: path}
	if err := s.db.ExecBatch(schemaBatch); err != nil {
		db.Close()
		return nil, fmt.Errorf("dbase: install schema: %w", err)
	}
	return s, nil
}

// Save persists a file-backed store; it is an error on in-memory stores. On
// a WAL-backed store this is a checkpoint. Transient storage faults are
// retried: Save (and Checkpoint) only advance the image generation after the
// durable write lands, so a failed attempt is safe to repeat.
func (s *Store) Save() error {
	defer s.timeOp("Save")(0)
	if s.path == "" {
		return fmt.Errorf("dbase: in-memory store cannot be saved")
	}
	return retryTransient(func() error { return s.db.Save(s.path) })
}

// Close flushes and detaches a WAL-backed store's log; it is a no-op on
// in-memory and plain file-backed stores.
func (s *Store) Close() error { return s.db.Close() }

// DB exposes the underlying SQL engine — the analysis phase queries it
// directly, exactly as the paper's users write SQL against the tables.
func (s *Store) DB() *sqldb.DB { return s.db }

// --- TargetSystemData ---

// TargetSystem is one row of TargetSystemData.
type TargetSystem struct {
	TestCardName string
	Description  string
	MemSize      uint32
	ROMSize      uint32
}

// LocationRow is one row of FaultLocation: a named state-element window of a
// scan chain (paper Fig. 5).
type LocationRow struct {
	TestCardName string
	LocationName string
	ChainName    string
	FirstBit     int
	Width        int
	Writable     bool
}

// PutTargetSystem inserts or replaces a target system description together
// with its fault-location inventory locs, dropping the target's earlier
// locations. The row and its inventory are one store write, all of it or
// none even across a crash: a store never holds a target whose inventory is
// partial.
func (s *Store) PutTargetSystem(ts TargetSystem, locs ...LocationRow) error {
	if ts.TestCardName == "" {
		return fmt.Errorf("dbase: target system needs a name")
	}
	name := sqldb.Text(ts.TestCardName)
	batch := []sqldb.Stmt{
		{SQL: "DELETE FROM FaultLocation WHERE testCardName = ?", Args: []sqldb.Value{name}},
		{SQL: "DELETE FROM TargetSystemData WHERE testCardName = ?", Args: []sqldb.Value{name}},
		{SQL: "INSERT INTO TargetSystemData VALUES (?, ?, ?, ?)", Args: []sqldb.Value{
			name, sqldb.Text(ts.Description), sqldb.Int64(int64(ts.MemSize)), sqldb.Int64(int64(ts.ROMSize))}},
	}
	batch = appendInserts(batch, "FaultLocation", 6, locs, func(args []sqldb.Value, l LocationRow) []sqldb.Value {
		return append(args,
			sqldb.Text(l.TestCardName), sqldb.Text(l.LocationName),
			sqldb.Text(l.ChainName), sqldb.Int64(int64(l.FirstBit)),
			sqldb.Int64(int64(l.Width)), sqldb.Bool(l.Writable))
	}, nil)
	if err := s.db.ExecBatch(batch); err != nil {
		return fmt.Errorf("dbase: put target system %s with %d fault locations: %w", ts.TestCardName, len(locs), err)
	}
	return nil
}

// GetTargetSystem fetches one target system.
func (s *Store) GetTargetSystem(name string) (TargetSystem, error) {
	rows, err := s.db.Query(
		"SELECT testCardName, description, memSize, romSize FROM TargetSystemData WHERE testCardName = ?",
		sqldb.Text(name))
	if err != nil {
		return TargetSystem{}, fmt.Errorf("dbase: %w", err)
	}
	if rows.Len() == 0 {
		return TargetSystem{}, fmt.Errorf("dbase: target system %q: %w", name, ErrNotFound)
	}
	r := rows.Data[0]
	return TargetSystem{
		TestCardName: r[0].Text,
		Description:  r[1].Text,
		MemSize:      uint32(r[2].Int),
		ROMSize:      uint32(r[3].Int),
	}, nil
}

// TargetSystems lists all registered target names.
func (s *Store) TargetSystems() ([]string, error) {
	rows, err := s.db.Query("SELECT testCardName FROM TargetSystemData ORDER BY testCardName")
	if err != nil {
		return nil, fmt.Errorf("dbase: %w", err)
	}
	out := make([]string, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Text)
	}
	return out, nil
}

// FaultLocations lists the fault locations of a target in name order.
func (s *Store) FaultLocations(card string) ([]LocationRow, error) {
	rows, err := s.db.Query(
		`SELECT locationName, chainName, firstBit, width, writable
		 FROM FaultLocation WHERE testCardName = ? ORDER BY chainName, firstBit`,
		sqldb.Text(card))
	if err != nil {
		return nil, fmt.Errorf("dbase: %w", err)
	}
	out := make([]LocationRow, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, LocationRow{
			TestCardName: card,
			LocationName: r[0].Text,
			ChainName:    r[1].Text,
			FirstBit:     int(r[2].Int),
			Width:        int(r[3].Int),
			Writable:     r[4].Int != 0,
		})
	}
	return out, nil
}

// --- CampaignData ---

// CampaignRow is one row of CampaignData (paper Fig. 6: everything needed to
// conduct a campaign).
type CampaignRow struct {
	CampaignName   string
	TestCardName   string
	Workload       string
	Technique      string
	FaultModel     string
	LocationFilter string
	TriggerSpec    string
	NExperiments   int
	Seed           int64
	InjectMinTime  uint64
	InjectMaxTime  uint64
	MaxCycles      uint64
	MaxIterations  uint64
	DetailMode     bool
	EnvSimulator   string
	Notes          string
}

// PutCampaign inserts a campaign definition.
func (s *Store) PutCampaign(c CampaignRow) error {
	defer s.timeOp("PutCampaign")(1)
	_, err := s.db.Exec("INSERT INTO CampaignData VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
		sqldb.Text(c.CampaignName), sqldb.Text(c.TestCardName),
		sqldb.Text(c.Workload), sqldb.Text(c.Technique),
		sqldb.Text(c.FaultModel), sqldb.Text(c.LocationFilter),
		sqldb.Text(c.TriggerSpec), sqldb.Int64(int64(c.NExperiments)),
		sqldb.Int64(c.Seed), sqldb.Int64(int64(c.InjectMinTime)),
		sqldb.Int64(int64(c.InjectMaxTime)), sqldb.Int64(int64(c.MaxCycles)),
		sqldb.Int64(int64(c.MaxIterations)), sqldb.Bool(c.DetailMode),
		sqldb.Text(c.EnvSimulator), sqldb.Text(c.Notes))
	if err != nil {
		return fmt.Errorf("dbase: put campaign %s: %w", c.CampaignName, err)
	}
	return nil
}

// GetCampaign fetches a campaign definition.
func (s *Store) GetCampaign(name string) (CampaignRow, error) {
	defer s.timeOp("GetCampaign")(1)
	rows, err := s.db.Query("SELECT * FROM CampaignData WHERE campaignName = ?", sqldb.Text(name))
	if err != nil {
		return CampaignRow{}, fmt.Errorf("dbase: %w", err)
	}
	if rows.Len() == 0 {
		return CampaignRow{}, fmt.Errorf("dbase: campaign %q: %w", name, ErrNotFound)
	}
	r := rows.Data[0]
	return CampaignRow{
		CampaignName:   r[0].Text,
		TestCardName:   r[1].Text,
		Workload:       r[2].Text,
		Technique:      r[3].Text,
		FaultModel:     r[4].Text,
		LocationFilter: r[5].Text,
		TriggerSpec:    r[6].Text,
		NExperiments:   int(r[7].Int),
		Seed:           r[8].Int,
		InjectMinTime:  uint64(r[9].Int),
		InjectMaxTime:  uint64(r[10].Int),
		MaxCycles:      uint64(r[11].Int),
		MaxIterations:  uint64(r[12].Int),
		DetailMode:     r[13].Int != 0,
		EnvSimulator:   r[14].Text,
		Notes:          r[15].Text,
	}, nil
}

// Campaigns lists campaign names in order.
func (s *Store) Campaigns() ([]string, error) {
	rows, err := s.db.Query("SELECT campaignName FROM CampaignData ORDER BY campaignName")
	if err != nil {
		return nil, fmt.Errorf("dbase: %w", err)
	}
	out := make([]string, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Text)
	}
	return out, nil
}

// MergeCampaigns creates a new campaign from several existing ones (§3.2:
// "merge campaign data from several fault injection campaigns into a new
// fault injection campaign"). The sources must agree on target, workload,
// technique and fault model; location filters are concatenated and the
// experiment counts summed. The widest time window and largest budgets win.
func (s *Store) MergeCampaigns(newName string, sources ...string) (CampaignRow, error) {
	if len(sources) < 2 {
		return CampaignRow{}, fmt.Errorf("dbase: merge needs at least two campaigns")
	}
	base, err := s.GetCampaign(sources[0])
	if err != nil {
		return CampaignRow{}, err
	}
	merged := base
	merged.CampaignName = newName
	merged.Notes = "merged from " + sources[0]
	for _, name := range sources[1:] {
		c, err := s.GetCampaign(name)
		if err != nil {
			return CampaignRow{}, err
		}
		if c.TestCardName != base.TestCardName || c.Workload != base.Workload ||
			c.Technique != base.Technique || c.FaultModel != base.FaultModel {
			return CampaignRow{}, fmt.Errorf(
				"dbase: cannot merge %s into %s: target/workload/technique/model differ",
				name, sources[0])
		}
		if c.LocationFilter != merged.LocationFilter {
			merged.LocationFilter += "," + c.LocationFilter
		}
		merged.NExperiments += c.NExperiments
		if c.InjectMinTime < merged.InjectMinTime {
			merged.InjectMinTime = c.InjectMinTime
		}
		if c.InjectMaxTime > merged.InjectMaxTime {
			merged.InjectMaxTime = c.InjectMaxTime
		}
		if c.MaxCycles > merged.MaxCycles {
			merged.MaxCycles = c.MaxCycles
		}
		if c.MaxIterations > merged.MaxIterations {
			merged.MaxIterations = c.MaxIterations
		}
		merged.Notes += ", " + name
	}
	if err := s.PutCampaign(merged); err != nil {
		return CampaignRow{}, err
	}
	return merged, nil
}

// --- LoggedSystemState ---

// ExperimentRow is one row of LoggedSystemState.
type ExperimentRow struct {
	ExperimentName    string
	ParentExperiment  string // "" when the experiment has no parent
	CampaignName      string
	ExperimentData    string
	TerminationReason string
	Mechanism         string
	Cycles            uint64
	Iterations        uint64
	// StateVector is the encoded state vector. A store shares these bytes
	// rather than copying them, in both directions: a row put into a Store
	// keeps the caller's slice, and a row read from one holds the store's
	// own, so classification reads every row's bytes in place. Callers must
	// not modify it.
	StateVector []byte
}

// PutExperiment logs one experiment.
func (s *Store) PutExperiment(e ExperimentRow) error {
	defer s.timeOp("PutExperiment")(1)
	return s.putExperiments([]ExperimentRow{e})
}

// appendExperimentArgs renders one experiment row in column order.
func appendExperimentArgs(args []sqldb.Value, e ExperimentRow) []sqldb.Value {
	parent := sqldb.Null()
	if e.ParentExperiment != "" {
		parent = sqldb.Text(e.ParentExperiment)
	}
	return append(args,
		sqldb.Text(e.ExperimentName), parent, sqldb.Text(e.CampaignName),
		sqldb.Text(e.ExperimentData), sqldb.Text(e.TerminationReason),
		sqldb.Text(e.Mechanism), sqldb.Int64(int64(e.Cycles)),
		sqldb.Int64(int64(e.Iterations)), sqldb.Blob(e.StateVector))
}

// emitRowsDurable records that the store acknowledged these experiment rows,
// one wide event per row naming the WAL commit batch (batch=N) that carried
// it, so a timeline can tie each logged row to the fsync that made it
// durable. Rows written by one store call share a batch. A store without a
// WAL — a plain file-backed one, as every service campaign store is — says
// batch=0 synced=false: its rows become durable at the next Save's image
// rename, which no event names. Stores without a journal pay one branch.
func (s *Store) emitRowsDurable(rows []ExperimentRow) {
	j := s.rec.Journal()
	if j == nil {
		return
	}
	batch, synced := s.db.LastWALBatch()
	for _, e := range rows {
		j.Emit(obsv.WideEvent{
			Kind:       obsv.EvRowDurable,
			Campaign:   e.CampaignName,
			Experiment: e.ExperimentName,
			Detail:     fmt.Sprintf("batch=%d synced=%t", batch, synced),
		})
	}
}

// maxInsertRows caps how many rows one multi-row INSERT carries. Beyond
// this the parse-amortisation win has flattened out, and an uncapped
// statement grows an unbounded SQL string (and WAL record) for giant
// flushes.
const maxInsertRows = 256

// appendInserts appends to batch the multi-row INSERTs that write rows into
// table, at most maxInsertRows rows each, the path of every bulk store
// write. render appends one row's cols values in column order; lead, when
// non-nil, gives a statement to run ahead of each chunk's INSERT. The
// caller executes the batch: whatever its size, it applies all-or-nothing
// and costs one WAL group commit.
func appendInserts[T any](batch []sqldb.Stmt, table string, cols int, rows []T,
	render func([]sqldb.Value, T) []sqldb.Value, lead func([]T) sqldb.Stmt) []sqldb.Stmt {
	placeholder := "(" + strings.Repeat("?, ", cols-1) + "?)"
	for len(rows) > 0 {
		chunk := rows[:min(len(rows), maxInsertRows)]
		rows = rows[len(chunk):]
		if lead != nil {
			batch = append(batch, lead(chunk))
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		args := make([]sqldb.Value, 0, cols*len(chunk))
		for i, r := range chunk {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(placeholder)
			args = render(args, r)
		}
		batch = append(batch, sqldb.Stmt{SQL: sb.String(), Args: args})
	}
	return batch
}

// insertChunked writes rows into table as one batch of appendInserts.
func insertChunked[T any](s *Store, table string, cols int, rows []T,
	render func([]sqldb.Value, T) []sqldb.Value, lead func([]T) sqldb.Stmt) error {
	var one [1]sqldb.Stmt // most calls are one chunk without a lead
	if err := s.db.ExecBatch(appendInserts(one[:0], table, cols, rows, render, lead)); err != nil {
		return fmt.Errorf("dbase: put %d %s rows: %w", len(rows), table, err)
	}
	return nil
}

// PutExperiments logs a batch of experiments in one store write, amortising
// statement parsing, per-row constraint checks and WAL commits — the logging
// stage of parallel campaign execution funnels worker results through this.
// The store keeps each row's StateVector bytes as they are: callers must not
// modify a state vector after putting it.
func (s *Store) PutExperiments(rows []ExperimentRow) error {
	if len(rows) == 0 {
		return nil
	}
	defer s.timeOp("PutExperiments")(len(rows))
	return s.putExperiments(rows)
}

func (s *Store) putExperiments(rows []ExperimentRow) error {
	if err := insertChunked(s, "LoggedSystemState", 9, rows, appendExperimentArgs, nil); err != nil {
		return err
	}
	s.emitRowsDurable(rows)
	return nil
}

// ExperimentNames returns the name of every logged experiment of a campaign
// as a membership set. The campaign runner's resume logic consults this one
// query instead of issuing a GetExperiment per planned experiment name —
// experiment names are campaign-prefixed ("<campaign>/eNNNN"), so the
// campaign-scoped listing answers exactly the same question.
func (s *Store) ExperimentNames(campaign string) (map[string]bool, error) {
	done := s.timeOp("ExperimentNames")
	rows, err := s.db.Query(
		"SELECT experimentName FROM LoggedSystemState WHERE campaignName = ?",
		sqldb.Text(campaign))
	if err != nil {
		done(0)
		return nil, fmt.Errorf("dbase: %w", err)
	}
	out := make(map[string]bool, rows.Len())
	for _, r := range rows.Data {
		out[r[0].Text] = true
	}
	done(len(out))
	return out, nil
}

// GetExperiment fetches one logged experiment.
func (s *Store) GetExperiment(name string) (ExperimentRow, error) {
	defer s.timeOp("GetExperiment")(1)
	rows, err := s.db.Query("SELECT * FROM LoggedSystemState WHERE experimentName = ?", sqldb.Text(name))
	if err != nil {
		return ExperimentRow{}, fmt.Errorf("dbase: %w", err)
	}
	if rows.Len() == 0 {
		return ExperimentRow{}, fmt.Errorf("dbase: experiment %q: %w", name, ErrNotFound)
	}
	return experimentFromRow(rows.Data[0]), nil
}

// Experiments returns every logged experiment of a campaign in name order.
func (s *Store) Experiments(campaign string) ([]ExperimentRow, error) {
	done := s.timeOp("Experiments")
	rows, err := s.db.Query(
		"SELECT * FROM LoggedSystemState WHERE campaignName = ? ORDER BY experimentName",
		sqldb.Text(campaign))
	if err != nil {
		done(0)
		return nil, fmt.Errorf("dbase: %w", err)
	}
	out := make([]ExperimentRow, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, experimentFromRow(r))
	}
	done(len(out))
	return out, nil
}

func experimentFromRow(r []sqldb.Value) ExperimentRow {
	e := ExperimentRow{
		ExperimentName:    r[0].Text,
		CampaignName:      r[2].Text,
		ExperimentData:    r[3].Text,
		TerminationReason: r[4].Text,
		Mechanism:         r[5].Text,
		Cycles:            uint64(r[6].Int),
		Iterations:        uint64(r[7].Int),
		StateVector:       r[8].Blob,
	}
	if !r[1].IsNull() {
		e.ParentExperiment = r[1].Text
	}
	return e
}

// --- AnalysisResult ---

// AnalysisRow is one classified experiment outcome.
type AnalysisRow struct {
	ExperimentName string
	CampaignName   string
	Outcome        string
	Mechanism      string
}

// PutAnalysis stores classification rows in one store write, replacing
// earlier results for the same experiments: each chunk first deletes its
// experiments' old rows in one statement (a no-op, and no WAL record, on a
// first classification).
func (s *Store) PutAnalysis(rows []AnalysisRow) error {
	defer s.timeOp("PutAnalysis")(len(rows))
	replace := func(chunk []AnalysisRow) sqldb.Stmt {
		names := make([]sqldb.Value, len(chunk))
		for i, r := range chunk {
			names[i] = sqldb.Text(r.ExperimentName)
		}
		return sqldb.Stmt{SQL: "DELETE FROM AnalysisResult WHERE experimentName IN (?" + strings.Repeat(", ?", len(chunk)-1) + ")", Args: names}
	}
	return insertChunked(s, "AnalysisResult", 4, rows, func(args []sqldb.Value, r AnalysisRow) []sqldb.Value {
		return append(args, sqldb.Text(r.ExperimentName), sqldb.Text(r.CampaignName),
			sqldb.Text(r.Outcome), sqldb.Text(r.Mechanism))
	}, replace)
}

// AnalysisResults returns the classification rows of a campaign.
func (s *Store) AnalysisResults(campaign string) ([]AnalysisRow, error) {
	done := s.timeOp("AnalysisResults")
	rows, err := s.db.Query(
		"SELECT experimentName, campaignName, outcome, mechanism FROM AnalysisResult WHERE campaignName = ? ORDER BY experimentName",
		sqldb.Text(campaign))
	if err != nil {
		done(0)
		return nil, fmt.Errorf("dbase: %w", err)
	}
	out := make([]AnalysisRow, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, AnalysisRow{
			ExperimentName: r[0].Text,
			CampaignName:   r[1].Text,
			Outcome:        r[2].Text,
			Mechanism:      r[3].Text,
		})
	}
	done(len(out))
	return out, nil
}

// DeleteCampaign removes a campaign and everything logged under it:
// analysis rows, experiments (including detail reruns, whose self-FK is
// satisfied by deleting all of them in one statement) and the CampaignData
// row itself. The target system stays registered.
func (s *Store) DeleteCampaign(name string) error {
	if _, err := s.GetCampaign(name); err != nil {
		return err
	}
	steps := []string{
		"DELETE FROM AnalysisResult WHERE campaignName = ?",
		"DELETE FROM CampaignRunMetrics WHERE campaignName = ?",
		"DELETE FROM ExperimentTraceEvents WHERE campaignName = ?",
		"DELETE FROM LoggedSystemState WHERE campaignName = ?",
		"DELETE FROM CampaignData WHERE campaignName = ?",
	}
	for _, q := range steps {
		if _, err := s.db.Exec(q, sqldb.Text(name)); err != nil {
			return fmt.Errorf("dbase: delete campaign %s: %w", name, err)
		}
	}
	return nil
}
