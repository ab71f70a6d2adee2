// Package vfs is the storage seam under goofi's persistence stack: a small
// virtual-filesystem interface that internal/sqldb (checkpoint images, the
// write-ahead log) and internal/dbase route every file operation through.
//
// Production code uses the passthrough OS implementation and pays one
// interface call per operation. Tests — and `goofi run -storage-chaos` —
// substitute Faulty, a seeded deterministic fault injector that simulates
// the misbehaviour real storage exhibits: transient and sticky I/O errors,
// short (torn) writes, fsyncs that lie, renames that are not durable until
// the parent directory is synced, and crashes that lose everything not yet
// fsynced. GOOFI injecting faults into GOOFI: the same genericity argument
// the paper makes for target-level injection, applied to the tool's own
// storage path.
package vfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
)

// File is one open file of an FS. It is the subset of *os.File the storage
// stack needs: sequential and positional reads/writes, metadata, durability.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	io.Closer
	// Name returns the path the file was opened as.
	Name() string
	// Stat returns the file's metadata.
	Stat() (fs.FileInfo, error)
	// Sync flushes the file's data to stable storage. On a directory handle
	// it makes the directory's entries (creations, renames, removals)
	// durable — the POSIX contract writeFileDurable depends on.
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
}

// FS is the filesystem surface of the storage stack. Implementations must be
// safe for concurrent use.
type FS interface {
	// Open opens a file (or directory) for reading.
	Open(name string) (File, error)
	// Create creates or truncates a file for read/write.
	Create(name string) (File, error)
	// OpenFile is the generalised open (os.OpenFile semantics).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadFile returns the whole content of a file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory in name order.
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OS is the passthrough FS over the real filesystem — the default everywhere.
type OS struct{}

func (OS) Open(name string) (File, error)   { return os.Open(name) }
func (OS) Create(name string) (File, error) { return os.Create(name) }
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// tempCounter seeds CreateTemp name generation; a process-wide counter keeps
// names unique without consulting a clock or global RNG.
var tempCounter atomic.Uint64

// CreateTemp creates a new file in dir with a unique name built from pattern
// (the last "*" is replaced by a unique suffix; without one the suffix is
// appended), open for read/write — os.CreateTemp semantics over an FS.
func CreateTemp(fsys FS, dir, pattern string) (File, error) {
	prefix, suffix := pattern, ""
	if i := lastStar(pattern); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	for try := 0; try < 10000; try++ {
		n := tempCounter.Add(1)
		name := filepath.Join(dir, prefix+strconv.FormatUint(n, 10)+suffix)
		f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if err == nil {
			return f, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("vfs: create temp in %s: %w", dir, err)
		}
	}
	return nil, fmt.Errorf("vfs: create temp in %s: name space exhausted", dir)
}

func lastStar(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '*' {
			return i
		}
	}
	return -1
}

// WriteFileDurable atomically replaces path with data and makes the
// replacement survive power loss: the temp file is fsynced before the rename
// and the parent directory after it (the rename itself lives in directory
// metadata). Cleanup removals of the abandoned temp file are best-effort —
// the primary error is what the caller needs to see.
func WriteFileDurable(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := CreateTemp(fsys, dir, ".goofidb-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		_ = fsys.Remove(tmpName) // best-effort: report the write error, not the cleanup
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(fmt.Errorf("vfs: write %s: %w", tmpName, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("vfs: sync %s: %w", tmpName, err))
	}
	if err := tmp.Close(); err != nil {
		_ = fsys.Remove(tmpName)
		return fmt.Errorf("vfs: close %s: %w", tmpName, err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		_ = fsys.Remove(tmpName)
		return fmt.Errorf("vfs: rename %s to %s: %w", tmpName, path, err)
	}
	return SyncDir(fsys, dir)
}

// SyncDir makes dir's entries (creations, renames, removals) durable by
// opening and fsyncing the directory — the POSIX step that commits name-level
// operations to stable storage.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("vfs: open dir %s for sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("vfs: sync dir %s: %w", dir, err)
	}
	return nil
}
