// Write-ahead logging for the embedded database.
//
// A WAL-backed database appends every mutating statement — SQL text plus
// bound parameters — to an append-only log file (<db>.wal) as length-prefixed,
// CRC-framed records. A single committer goroutine performs group commit:
// concurrent committers enqueue records under the database lock (preserving
// execution order) and block on a ticket while the committer coalesces
// everything pending into one write and, per the sync policy, one fsync. A
// store flush therefore costs O(batch) — one log append — no matter how many
// rows the database already holds; the whole-file image is only rewritten
// when the WAL is folded into it by a checkpoint. The image is itself a
// compacted log in the same frames (see imageLocked in persist.go).
//
// Crash consistency hangs on one number, the generation. The image header
// carries its generation; the WAL header carries the generation of the image
// it extends. Open replays the WAL over the image only
// when the two match. A checkpoint durably writes the new image (generation
// N+1) and only then resets the WAL to generation N+1 — a crash between the
// two steps leaves a stale WAL that the next open discards, never a record
// applied twice. Replay stops cleanly at a torn tail (short frame or CRC
// mismatch), which by the ack protocol can only hold records that were never
// acknowledged. An ExecBatch is logged as a header frame carrying its
// statement count followed by that many record frames, all in one write;
// replay applies it only when every one of those frames is intact.
package sqldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/obsv"
	"goofi/internal/vfs"
)

// WALOptions tunes a write-ahead-logged database.
type WALOptions struct {
	// SyncEvery is the group-commit sync policy: fsync after every Nth
	// commit batch. At 1 (and below, the default) every batch is fsynced
	// before its committers are acknowledged — an acknowledged write
	// survives SIGKILL. Above 1, batches are acknowledged after the write
	// and the fsync is deferred until SyncEvery batches or SyncInterval
	// have accumulated, trading the durability of the last few batches for
	// fewer fsyncs.
	SyncEvery int
	// SyncInterval bounds how long a deferred fsync (SyncEvery > 1) may lag
	// behind its write. Zero means DefaultSyncInterval.
	SyncInterval time.Duration
	// CheckpointBytes is the WAL size that triggers an automatic checkpoint
	// (fold the log into the image and truncate it). Zero means
	// DefaultCheckpointBytes; negative disables automatic checkpointing.
	CheckpointBytes int64
}

// Defaults for WALOptions zero values.
const (
	DefaultSyncInterval    = 2 * time.Millisecond
	DefaultCheckpointBytes = 8 << 20
)

// WAL file framing.
const (
	walMagic      = "GWAL"
	walVersion    = 1
	walHeaderSize = 16 // magic[4] version[4] generation[8]
	walFrameSize  = 8  // payloadLen[4] crc[4]
	// maxWALPayload rejects absurd frame lengths during replay so a
	// corrupted length field cannot drive a giant allocation.
	maxWALPayload = 64 << 20
	// walBatchMark opens a batch header payload: mark[4] count[4]. In a
	// statement record the same field is the SQL length, which can never
	// reach it, so the two payload kinds cannot be confused.
	walBatchMark       = math.MaxUint32
	walBatchHeaderSize = 8
)

// walCommitTID is the virtual thread id the committer's wal-append phase
// spans are recorded under: the WAL has its own goroutine, so the phase stays
// a leaf on its own timeline lane (-1, below the coordinator's 0).
const walCommitTID int32 = -1

// WALStats is a point-in-time summary of WAL activity, for logging and tests.
type WALStats struct {
	// Records and Bytes count appended statement records and their framed
	// size; CommitBatches counts group-commit rounds and Fsyncs the rounds
	// that ended in an fsync.
	Records, Bytes, CommitBatches, Fsyncs int64
	// IORetries counts transient storage faults the committer absorbed by
	// retrying (truncating any torn prefix first) instead of going sticky.
	IORetries int64
	// Replayed counts records applied by recovery at open.
	Replayed int64
	// Checkpoints counts WAL truncations (explicit and automatic).
	Checkpoints int64
	// Size is the current WAL file size in bytes, including frames not yet
	// handed to the committer.
	Size int64
	// Generation is the image generation the WAL currently extends.
	Generation uint64
}

// walAck is the committer's acknowledgement of one appended record: which
// commit batch made it durable, whether that batch ended in an fsync (false
// under a deferred sync policy), and the batch's write error if any. The
// batch id is what provenance tracing joins on — a row's wide event names the
// batch that carried it, and the batch's own wal-commit event carries the
// record/byte/sync detail.
type walAck struct {
	batch  int64
	synced bool
	err    error
}

// walWaiter is one committer blocked in a ticket until its records' commit
// batch is acknowledged: one statement, or every statement of an ExecBatch.
type walWaiter struct {
	ch      chan walAck
	records int
}

// walReset is a checkpoint's request to discard the log and start a new
// generation. It is processed by the committer goroutine, which owns the file.
type walReset struct {
	gen   uint64
	reply chan error
}

// wal is the append-only log behind one DB. All file I/O happens on the
// committer goroutine; producers only append to the pending buffer.
type wal struct {
	path string
	fsys vfs.FS
	opts WALOptions

	mu      sync.Mutex
	pending []byte
	waiters []walWaiter
	resets  []walReset
	failed  error // sticky I/O failure: all subsequent appends fail fast

	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	// size includes pending-but-unwritten bytes so the auto-checkpoint
	// trigger sees growth promptly.
	size atomic.Int64

	rec atomic.Pointer[obsv.Recorder]

	records, bytes, batches, fsyncs, replayed, checkpoints, ioRetries atomic.Int64

	// Committer-owned state.
	f          vfs.File
	fileEnd    int64 // logical end of the log: offset just past the last durable-intent byte
	generation uint64
	unsynced   int       // commit batches since the last fsync
	lastSync   time.Time // of the last fsync
	spare      []byte    // the last round's buffer, the next round's empty pending
}

// --- record codec ---

// appendWALPayload encodes one statement record: the SQL text and its bound
// parameters.
func appendWALPayload(dst []byte, sql string, args []Value) []byte {
	return appendWALValues(appendWALPayloadHead(dst, sql, len(args)), args)
}

// appendWALPayloadHead encodes what precedes a record's argc parameters.
func appendWALPayloadHead(dst []byte, sql string, argc int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sql)))
	return binary.LittleEndian.AppendUint32(append(dst, sql...), uint32(argc))
}

// appendWALValues encodes the bound parameters of a record.
func appendWALValues(dst []byte, args []Value) []byte {
	for _, v := range args {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case KindInt:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int))
		case KindReal:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Real))
		case KindText:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Text)))
			dst = append(dst, v.Text...)
		case KindBlob:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Blob)))
			dst = append(dst, v.Blob...)
		}
	}
	return dst
}

// walPayloadSize is the length appendWALPayload gives a record.
func walPayloadSize(sql string, args []Value) int {
	return 4 + len(sql) + 4 + walValuesSize(args)
}

// walValuesSize is the length appendWALValues gives args.
func walValuesSize(args []Value) int {
	n := len(args)
	for _, v := range args {
		switch v.Kind {
		case KindInt, KindReal:
			n += 8
		case KindText:
			n += 4 + len(v.Text)
		case KindBlob:
			n += 4 + len(v.Blob)
		}
	}
	return n
}

// walBatchCount reports whether payload is a batch header and, if so, how
// many statement frames the batch holds.
func walBatchCount(payload []byte) (count uint32, ok bool) {
	if len(payload) != walBatchHeaderSize || binary.LittleEndian.Uint32(payload) != walBatchMark {
		return 0, false
	}
	return binary.LittleEndian.Uint32(payload[4:]), true
}

// decodeWALPayload is the inverse of appendWALPayload. Every read is
// bounds-checked: arbitrary bytes decode to an error, never a panic.
func decodeWALPayload(p []byte) (string, []Value, error) {
	cur := walCursor{buf: p}
	sqlLen := cur.u32()
	sql := cur.bytes(int64(sqlLen))
	argc := cur.u32()
	if cur.err != nil {
		return "", nil, cur.err
	}
	// Each argument needs at least its kind byte; reject counts the
	// remaining bytes cannot possibly hold.
	if int64(argc) > int64(len(cur.buf)-cur.off) {
		return "", nil, fmt.Errorf("wal record: %d args in %d remaining bytes", argc, len(cur.buf)-cur.off)
	}
	args := make([]Value, 0, argc)
	for i := uint32(0); i < argc && cur.err == nil; i++ {
		switch kind := ValueKind(cur.u8()); kind {
		case KindNull:
			args = append(args, Null())
		case KindInt:
			args = append(args, Int64(int64(cur.u64())))
		case KindReal:
			args = append(args, Float64(math.Float64frombits(cur.u64())))
		case KindText:
			args = append(args, Text(string(cur.bytes(int64(cur.u32())))))
		case KindBlob:
			// p is replay's reused read buffer: the row must own a copy.
			args = append(args, Blob(bytes.Clone(cur.bytes(int64(cur.u32())))))
		default:
			return "", nil, fmt.Errorf("wal record: unknown value kind %d", kind)
		}
	}
	if cur.err != nil {
		return "", nil, cur.err
	}
	if cur.off != len(cur.buf) {
		return "", nil, fmt.Errorf("wal record: %d trailing bytes", len(cur.buf)-cur.off)
	}
	return string(sql), args, nil
}

// walCursor is a bounds-checked reader over a record payload.
type walCursor struct {
	buf []byte
	off int
	err error
}

func (c *walCursor) bytes(n int64) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > int64(len(c.buf)-c.off) {
		c.err = fmt.Errorf("wal record: truncated (%d bytes wanted at offset %d of %d)", n, c.off, len(c.buf))
		return nil
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

func (c *walCursor) u8() byte {
	b := c.bytes(1)
	if c.err != nil {
		return 0
	}
	return b[0]
}

func (c *walCursor) u32() uint32 {
	b := c.bytes(4)
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *walCursor) u64() uint64 {
	b := c.bytes(8)
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// appendWALFrame frames one payload: length, CRC32 (IEEE) of the payload,
// payload.
func appendWALFrame(dst []byte, sql string, args []Value) []byte {
	head := len(dst)
	return closeWALFrame(appendWALPayload(openWALFrame(dst), sql, args), head)
}

// openWALFrame appends the placeholder of a frame header; closeWALFrame
// fills it in once the payload that follows it, up to the end of dst, is
// appended. head is the length of dst before openWALFrame.
func openWALFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

func closeWALFrame(dst []byte, head int) []byte {
	payload := dst[head+walFrameSize:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// appendWALBatch frames a batch of statements into dst: a header frame
// carrying the statement count, then one ordinary record frame per
// statement. walBatchSize gives the length it adds.
func appendWALBatch(dst []byte, stmts []Stmt) []byte {
	head := len(dst)
	dst = binary.LittleEndian.AppendUint32(openWALFrame(dst), walBatchMark)
	dst = closeWALFrame(binary.LittleEndian.AppendUint32(dst, uint32(len(stmts))), head)
	for _, st := range stmts {
		dst = appendWALFrame(dst, st.SQL, st.Args)
	}
	return dst
}

// walBatchSize is the framed length of a batch.
func walBatchSize(stmts []Stmt) int {
	n := walFrameSize + walBatchHeaderSize
	for _, st := range stmts {
		n += walFrameSize + walPayloadSize(st.SQL, st.Args)
	}
	return n
}

// appendFileHeader appends the 16-byte header the WAL and the checkpoint
// image share: magic, format version, generation.
func appendFileHeader(dst []byte, magic string, version uint32, gen uint64) []byte {
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint32(dst, version)
	return binary.LittleEndian.AppendUint64(dst, gen)
}

func walHeader(gen uint64) []byte {
	return appendFileHeader(make([]byte, 0, walHeaderSize), walMagic, walVersion, gen)
}

// --- open / replay ---

// replayWALFile reads frames from r and applies each decoded statement,
// stopping cleanly at the first torn or corrupt frame. A batch (a header
// frame and its statement frames) is applied only once all of its frames
// have been read intact, so a batch cut short by the tail is dropped whole.
// It returns the file offset just past the last applied frame and the
// number of records applied. Apply errors and real read errors are reported
// — only EOF-shaped damage is the expected tail of a crash and simply where
// replay ends. A transient device error must not masquerade as a clean tail,
// or recovery would silently truncate acknowledged records.
func replayWALFile(r io.Reader, apply func(sql string, args []Value) error) (int64, int64, error) {
	br := &countingReader{r: r}
	valid := int64(walHeaderSize)
	var (
		n       int64
		payload []byte // reused: decodeWALPayload copies what it keeps
		frame   [walFrameSize]byte
		batch   []walRecord // the records of the open batch, or the one record
		want    uint32      // records the open batch still lacks
	)
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if !isEOFShaped(err) {
				return valid, n, fmt.Errorf("wal replay: read frame: %w", err)
			}
			return valid, n, nil // clean end or torn frame header
		}
		length := binary.LittleEndian.Uint32(frame[:4])
		crc := binary.LittleEndian.Uint32(frame[4:])
		if length > maxWALPayload {
			return valid, n, nil // corrupt length: treat as tail damage
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			if !isEOFShaped(err) {
				return valid, n, fmt.Errorf("wal replay: read payload: %w", err)
			}
			return valid, n, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return valid, n, nil // corrupt payload
		}
		if count, ok := walBatchCount(payload); ok {
			if want > 0 || count == 0 {
				return valid, n, nil // a header inside a batch, or an empty one: garbage
			}
			want = count
			continue
		}
		sql, args, err := decodeWALPayload(payload)
		if err != nil {
			return valid, n, nil // framed garbage: stop before applying it
		}
		batch = append(batch, walRecord{sql: sql, args: args})
		if want > 1 {
			want--
			continue
		}
		want = 0
		for _, rc := range batch {
			if err := apply(rc.sql, rc.args); err != nil {
				return valid, n, fmt.Errorf("wal replay: record %d: %w", n+1, err)
			}
			n++
		}
		clear(batch)
		batch = batch[:0]
		valid = int64(walHeaderSize) + br.n
	}
}

// walRecord is one decoded statement record.
type walRecord struct {
	sql  string
	args []Value
}

// isEOFShaped reports whether a read error means "the file ends here" — the
// one kind of failure replay is allowed to treat as a clean torn tail.
func isEOFShaped(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// replaySidecarWAL applies a matching-generation WAL beside an image, if
// one exists — the read-only recovery path used by plain Open so that every
// consumer of the database file (analysis, reporting, goofi-db) sees
// crash-consistent data without opting into WAL mode. A missing, empty,
// foreign or stale-generation sidecar is silently ignored.
func replaySidecarWAL(fsys vfs.FS, dbPath string, gen uint64, apply func(sql string, args []Value) error) (int64, error) {
	f, err := fsys.Open(dbPath + ".wal")
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("open wal: %w", err)
	}
	defer f.Close()
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if !isEOFShaped(err) {
			return 0, fmt.Errorf("open wal: read header: %w", err)
		}
		return 0, nil // empty or torn header: nothing durable in it
	}
	if string(hdr[:4]) != walMagic || binary.LittleEndian.Uint32(hdr[4:8]) != walVersion {
		return 0, nil
	}
	if binary.LittleEndian.Uint64(hdr[8:]) != gen {
		return 0, nil // stale log from before the image was rewritten
	}
	_, n, err := replayWALFile(f, apply)
	return n, err
}

// openWAL opens (or creates) the log at path, replays it over the database via
// apply when its generation matches gen, resets it when stale, truncates any
// torn tail, and returns the ready-to-append wal. The committer goroutine is
// not yet started.
func openWAL(fsys vfs.FS, path string, gen uint64, opts WALOptions, apply func(sql string, args []Value) error) (*wal, error) {
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	w := &wal{
		path:       path,
		fsys:       fsys,
		opts:       opts,
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		f:          f,
		generation: gen,
		lastSync:   time.Now(),
	}
	fail := func(err error) (*wal, error) {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("open wal: %w", err))
	}
	end := int64(walHeaderSize)
	fresh := st.Size() < walHeaderSize
	if !fresh {
		var hdr [walHeaderSize]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return fail(fmt.Errorf("open wal: read header: %w", err))
		}
		if string(hdr[:4]) != walMagic {
			return fail(fmt.Errorf("open wal: %s is not a goofi WAL", path))
		}
		if v := binary.LittleEndian.Uint32(hdr[4:8]); v != walVersion {
			return fail(fmt.Errorf("open wal: %s has unsupported version %d", path, v))
		}
		if binary.LittleEndian.Uint64(hdr[8:]) == gen {
			valid, n, err := replayWALFile(f, apply)
			if err != nil {
				return fail(err)
			}
			w.replayed.Store(n)
			end = valid
		} else {
			fresh = true // stale generation: discard the records
		}
	}
	if fresh {
		if err := f.Truncate(0); err != nil {
			return fail(fmt.Errorf("reset wal: %w", err))
		}
		if _, err := f.WriteAt(walHeader(gen), 0); err != nil {
			return fail(fmt.Errorf("reset wal: %w", err))
		}
	} else if err := f.Truncate(end); err != nil { // drop any torn tail
		return fail(fmt.Errorf("truncate wal tail: %w", err))
	}
	// Every open makes the log durable before a record can be acknowledged,
	// not only one that wrote the header: an earlier attempt may have
	// created the file and failed before these syncs, and its volatile log
	// looks valid to a retry. The file's *name* lives in directory metadata:
	// without a directory sync a power cut can erase the log along with
	// every record appended to it.
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("open wal: %w", err))
	}
	if err := vfs.SyncDir(fsys, filepath.Dir(path)); err != nil {
		return fail(fmt.Errorf("open wal: %w", err))
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return fail(fmt.Errorf("open wal: %w", err))
	}
	w.fileEnd = end
	w.size.Store(end)
	return w, nil
}

// --- producer side ---

// append enqueues one framed record for group commit, preserving the caller's
// position in the execution order (callers hold the DB lock while enqueuing).
// The returned channel delivers exactly one acknowledgement once the record's
// batch commits per the sync policy.
func (w *wal) append(sql string, args []Value) chan walAck {
	return w.enqueue(1, func(dst []byte) []byte { return appendWALFrame(dst, sql, args) })
}

// appendBatch enqueues stmts as one unit with one acknowledgement, as
// append does for one record. A single statement is framed as a plain
// record; more are framed as a batch, straight into the pending buffer at
// their final size.
func (w *wal) appendBatch(stmts []Stmt) chan walAck {
	if len(stmts) == 1 {
		return w.append(stmts[0].SQL, stmts[0].Args)
	}
	return w.enqueue(len(stmts), func(dst []byte) []byte {
		return appendWALBatch(slices.Grow(dst, walBatchSize(stmts)), stmts)
	})
}

// enqueue appends what frame writes to the pending buffer and registers
// one waiter for the records it framed.
func (w *wal) enqueue(records int, frame func([]byte) []byte) chan walAck {
	ch := make(chan walAck, 1)
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		ch <- walAck{err: err}
		return ch
	}
	before := len(w.pending)
	w.pending = frame(w.pending)
	w.size.Add(int64(len(w.pending) - before))
	w.waiters = append(w.waiters, walWaiter{ch: ch, records: records})
	w.mu.Unlock()
	w.wake()
	return ch
}

// reset asks the committer to discard the log and restart it at generation
// gen. Callers hold the DB lock, so no record can be enqueued between the
// request and the reply; every record already pending is covered by the
// image the caller just wrote, so its waiters are acknowledged successfully.
func (w *wal) reset(gen uint64) error {
	req := walReset{gen: gen, reply: make(chan error, 1)}
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return err
	}
	w.resets = append(w.resets, req)
	w.mu.Unlock()
	w.wake()
	return <-req.reply
}

func (w *wal) wake() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// close flushes and fsyncs everything pending, stops the committer and closes
// the file. A WAL that already went sticky-failed still has a live committer
// goroutine and an open descriptor: close stops and releases both, then
// reports the original failure.
func (w *wal) close() error {
	w.mu.Lock()
	prior := w.failed
	w.failed = errWALClosed
	w.mu.Unlock()
	if prior == errWALClosed {
		return nil // second close: committer already stopped, file already closed
	}
	close(w.quit)
	<-w.done
	cerr := w.f.Close()
	if prior != nil {
		return prior
	}
	return cerr
}

var errWALClosed = fmt.Errorf("sqldb: wal closed")

func (w *wal) stats() WALStats {
	return WALStats{
		Records:       w.records.Load(),
		Bytes:         w.bytes.Load(),
		CommitBatches: w.batches.Load(),
		Fsyncs:        w.fsyncs.Load(),
		IORetries:     w.ioRetries.Load(),
		Replayed:      w.replayed.Load(),
		Checkpoints:   w.checkpoints.Load(),
		Size:          w.size.Load(),
	}
}

// --- committer goroutine ---

// run is the group-commit loop. It owns the file: writes, fsyncs, and
// checkpoint resets all happen here, so they cannot race each other.
func (w *wal) run() {
	defer close(w.done)
	timer := time.NewTimer(w.opts.SyncInterval)
	timer.Stop()
	armed := false
	for {
		select {
		case <-w.kick:
		case <-timer.C:
			armed = false
			if w.unsynced > 0 {
				w.syncFile(w.rec.Load())
			}
			continue
		case <-w.quit:
			w.commit(true)
			if armed {
				timer.Stop()
			}
			return
		}
		deferred := w.commit(false)
		if deferred && !armed {
			timer.Reset(w.opts.SyncInterval)
			armed = true
		} else if !deferred && armed {
			timer.Stop()
			armed = false
		}
	}
}

// commit performs one group-commit round: swap out everything pending, write
// it in one call, fsync per policy, acknowledge the waiters, and process any
// checkpoint resets. It reports whether an fsync is still owed (deferred sync
// mode).
func (w *wal) commit(final bool) (deferred bool) {
	w.mu.Lock()
	buf, waiters, resets := w.pending, w.waiters, w.resets
	w.pending, w.waiters, w.resets = w.spare[:0], nil, nil
	w.mu.Unlock()
	// Frames are built in two buffers that trade places every round, so a
	// frame is not re-grown from empty each time; Write has copied buf by
	// the time it becomes the spare.
	defer func() { w.spare = buf[:0] }()

	rec := w.rec.Load()

	if len(resets) > 0 {
		// Every pending record predates the reset request (producers hold
		// the DB lock across enqueue, and the checkpoint holds it across the
		// reset), so each is contained in the image the checkpointer just
		// wrote: acknowledge them without touching the file, then restart
		// the log at the new generation.
		for _, wt := range waiters {
			wt.ch <- walAck{batch: w.batches.Load(), synced: true}
		}
		gen := resets[len(resets)-1].gen
		err := w.resetFile(gen)
		for _, rq := range resets {
			rq.reply <- err
		}
		if err != nil {
			w.fail(err)
		}
		return false
	}

	if len(buf) == 0 {
		if final && w.unsynced > 0 {
			w.syncFile(rec)
		}
		return false
	}

	journal := rec.Journal()
	var began time.Time
	if journal != nil {
		began = time.Now()
	}
	sp := rec.Begin(obsv.PhaseWALAppend, walCommitTID)
	err := w.retryTransient(rec, func() error {
		_, werr := w.f.Write(buf)
		return werr
	}, func() error {
		// A failed write may still have landed a torn prefix; drop it and
		// restore the append position so the retry rewrites the whole batch.
		if terr := w.f.Truncate(w.fileEnd); terr != nil {
			return terr
		}
		_, serr := w.f.Seek(w.fileEnd, io.SeekStart)
		return serr
	})
	if err == nil {
		w.fileEnd += int64(len(buf))
	}
	batch := w.batches.Add(1)
	w.unsynced++
	doSync := err == nil &&
		(final || w.opts.SyncEvery <= 1 || w.unsynced >= w.opts.SyncEvery ||
			time.Since(w.lastSync) >= w.opts.SyncInterval)
	if doSync {
		if serr := w.syncFile(rec); err == nil {
			err = serr
		}
	}
	sp.End()
	records := 0
	for _, wt := range waiters {
		records += wt.records
	}
	if err == nil {
		w.records.Add(int64(records))
		w.bytes.Add(int64(len(buf)))
		rec.Count("wal.records", int64(records))
		rec.Count("wal.bytes", int64(len(buf)))
		rec.Count("wal.commit-batches", 1)
	} else {
		w.fail(err)
	}
	if journal != nil {
		// One wide event per group-commit round: rows acknowledged by this
		// batch name it (batch=N in their row-durable events), so a timeline
		// can show which fsync made each row durable.
		journal.Emit(obsv.WideEvent{
			Kind:   obsv.EvWALCommit,
			TID:    obsv.WALCommitTID,
			TimeNs: began.UnixNano(),
			DurNs:  time.Since(began).Nanoseconds(),
			Detail: fmt.Sprintf("batch=%d records=%d bytes=%d synced=%t err=%t", batch, records, len(buf), doSync, err != nil),
		})
	}
	for _, wt := range waiters {
		wt.ch <- walAck{batch: batch, synced: doSync && err == nil, err: err}
	}
	return err == nil && !doSync
}

// walIORetryLimit bounds how many times the committer retries an injected
// transient storage fault before declaring the WAL sticky-failed.
const walIORetryLimit = 3

// retryTransient runs fn, retrying transient injected storage faults (see
// vfs.IsTransient) up to walIORetryLimit times; any other error — or a real
// device error — fails on the first attempt, preserving the sticky-failure
// policy. Between attempts undo (when non-nil) repairs partial effects, e.g.
// truncating a torn write; if undo itself fails the original error is
// returned unretried.
func (w *wal) retryTransient(rec *obsv.Recorder, fn, undo func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || attempt >= walIORetryLimit || !vfs.IsTransient(err) {
			return err
		}
		if undo != nil {
			if uerr := undo(); uerr != nil {
				return err
			}
		}
		w.ioRetries.Add(1)
		rec.Count("wal.io-retries", 1)
	}
}

func (w *wal) syncFile(rec *obsv.Recorder) error {
	err := w.retryTransient(rec, w.f.Sync, nil)
	if err != nil {
		w.fail(err)
		return err
	}
	w.unsynced = 0
	w.lastSync = time.Now()
	w.fsyncs.Add(1)
	rec.Count("wal.fsyncs", 1)
	return nil
}

// resetFile truncates the log to a fresh header at generation gen. Header
// write and sync retry transient faults: a positional rewrite at offset 0
// self-repairs a torn header, so retrying is always safe here.
func (w *wal) resetFile(gen uint64) error {
	rec := w.rec.Load()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("reset wal: %w", err)
	}
	err := w.retryTransient(rec, func() error {
		_, werr := w.f.WriteAt(walHeader(gen), 0)
		return werr
	}, nil)
	if err != nil {
		return fmt.Errorf("reset wal: %w", err)
	}
	if err := w.retryTransient(rec, w.f.Sync, nil); err != nil {
		return fmt.Errorf("reset wal: %w", err)
	}
	if _, err := w.f.Seek(walHeaderSize, io.SeekStart); err != nil {
		return fmt.Errorf("reset wal: %w", err)
	}
	w.generation = gen
	w.unsynced = 0
	w.lastSync = time.Now()
	w.fileEnd = walHeaderSize
	w.size.Store(walHeaderSize)
	w.checkpoints.Add(1)
	rec.Count("wal.checkpoints", 1)
	return nil
}

// fail marks the WAL broken: producers get the error immediately instead of
// queueing records that can never become durable.
func (w *wal) fail(err error) {
	w.mu.Lock()
	if w.failed == nil {
		w.failed = fmt.Errorf("sqldb: wal failed: %w", err)
	}
	// Anything enqueued after the swap that caused the failure is drained
	// here so its waiters are not stranded.
	waiters, resets := w.waiters, w.resets
	w.pending, w.waiters, w.resets = nil, nil, nil
	failed := w.failed
	w.mu.Unlock()
	for _, wt := range waiters {
		wt.ch <- walAck{err: failed}
	}
	for _, rq := range resets {
		rq.reply <- failed
	}
}
