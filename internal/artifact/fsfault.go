package artifact

import (
	"io"
	"os"
	"sync"
	"syscall"
)

// FSOps is the seam between the disk tier and the filesystem: every byte the
// tier reads or writes goes through this interface, so tests can inject the
// failures real disks produce — short writes, ENOSPC, EIO mid-read, a crash
// between temp-write and rename — and prove each one degrades to a counted
// silent rebuild. Production uses OSFS.
type FSOps interface {
	MkdirAll(dir string, perm os.FileMode) error
	ReadFile(path string) ([]byte, error)
	// CreateTemp creates a unique temp file in dir (os.CreateTemp pattern
	// rules) that the caller writes, syncs, closes, and renames into place.
	CreateTemp(dir, pattern string) (FSFile, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	ReadDir(dir string) ([]os.DirEntry, error)
	// SyncDir fsyncs a directory, making a preceding rename durable.
	SyncDir(dir string) error
}

// FSFile is the writable temp-file handle the tier fills before renaming.
type FSFile interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (OSFS) ReadFile(path string) ([]byte, error)        { return os.ReadFile(path) }
func (OSFS) CreateTemp(dir, pattern string) (FSFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (OSFS) Rename(oldPath, newPath string) error      { return os.Rename(oldPath, newPath) }
func (OSFS) Remove(path string) error                  { return os.Remove(path) }
func (OSFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (OSFS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FaultFS wraps a base FSOps (usually OSFS) and injects failures on demand.
// All knobs are safe to flip between operations from the owning test
// goroutine; accesses are mutex-guarded so the race detector stays quiet
// when the disk tier is exercised concurrently.
type FaultFS struct {
	Base FSOps

	mu sync.Mutex
	// createErr fails CreateTemp (e.g. ENOSPC before a byte is written).
	createErr error
	// writeLimit < 0 means unlimited; otherwise the total bytes Write may
	// deliver before failing with writeErr — the tail of the final Write is
	// silently dropped first, which is exactly a torn/short write.
	writeLimit int
	written    int
	writeErr   error
	// syncErr fails FSFile.Sync (ENOSPC discovered at flush time).
	syncErr error
	// renameErr fails Rename, leaving the temp file behind — observationally
	// identical to a crash between temp-write and rename.
	renameErr error
	// readErr fails ReadFile on existing files (EIO mid-read).
	readErr error
}

// NewFaultFS returns a FaultFS over base (nil selects OSFS) with no faults
// armed.
func NewFaultFS(base FSOps) *FaultFS {
	if base == nil {
		base = OSFS{}
	}
	return &FaultFS{Base: base, writeLimit: -1}
}

// FailCreate arms (or with nil disarms) CreateTemp failure.
func (f *FaultFS) FailCreate(err error) { f.mu.Lock(); f.createErr = err; f.mu.Unlock() }

// FailWriteAfter allows n total bytes through Write and then fails with err
// (ENOSPC if nil). n < 0 disarms.
func (f *FaultFS) FailWriteAfter(n int, err error) {
	if err == nil {
		err = syscall.ENOSPC
	}
	f.mu.Lock()
	f.writeLimit, f.written, f.writeErr = n, 0, err
	f.mu.Unlock()
}

// FailSync arms (or with nil disarms) FSFile.Sync failure.
func (f *FaultFS) FailSync(err error) { f.mu.Lock(); f.syncErr = err; f.mu.Unlock() }

// FailRename arms (or with nil disarms) Rename failure — the crash-before-
// rename scenario: the temp file stays, the final name never appears.
func (f *FaultFS) FailRename(err error) { f.mu.Lock(); f.renameErr = err; f.mu.Unlock() }

// FailRead arms (or with nil disarms) ReadFile failure (EIO).
func (f *FaultFS) FailRead(err error) { f.mu.Lock(); f.readErr = err; f.mu.Unlock() }

func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error { return f.Base.MkdirAll(dir, perm) }

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	err := f.readErr
	f.mu.Unlock()
	if err != nil {
		// Only fail reads of files that exist: a not-exist miss is a
		// different (and boring) path than an I/O error on real bytes.
		if _, statErr := os.Stat(path); statErr == nil {
			return nil, &os.PathError{Op: "read", Path: path, Err: err}
		}
	}
	return f.Base.ReadFile(path)
}

func (f *FaultFS) CreateTemp(dir, pattern string) (FSFile, error) {
	f.mu.Lock()
	err := f.createErr
	f.mu.Unlock()
	if err != nil {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: err}
	}
	file, ferr := f.Base.CreateTemp(dir, pattern)
	if ferr != nil {
		return nil, ferr
	}
	return &faultFile{FSFile: file, fs: f}, nil
}

func (f *FaultFS) Rename(oldPath, newPath string) error {
	f.mu.Lock()
	err := f.renameErr
	f.mu.Unlock()
	if err != nil {
		return &os.LinkError{Op: "rename", Old: oldPath, New: newPath, Err: err}
	}
	return f.Base.Rename(oldPath, newPath)
}

func (f *FaultFS) Remove(path string) error                  { return f.Base.Remove(path) }
func (f *FaultFS) ReadDir(dir string) ([]os.DirEntry, error) { return f.Base.ReadDir(dir) }
func (f *FaultFS) SyncDir(dir string) error                  { return f.Base.SyncDir(dir) }

// faultFile applies the write/sync faults to one temp file.
type faultFile struct {
	FSFile
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	limit, written, werr := ff.fs.writeLimit, ff.fs.written, ff.fs.writeErr
	ff.fs.mu.Unlock()
	if limit < 0 {
		return ff.FSFile.Write(p)
	}
	allow := limit - written
	if allow <= 0 {
		return 0, &os.PathError{Op: "write", Path: ff.Name(), Err: werr}
	}
	short := false
	if allow < len(p) {
		p, short = p[:allow], true
	}
	n, err := ff.FSFile.Write(p)
	ff.fs.mu.Lock()
	ff.fs.written += n
	ff.fs.mu.Unlock()
	if err == nil && short {
		err = &os.PathError{Op: "write", Path: ff.Name(), Err: werr}
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	err := ff.fs.syncErr
	ff.fs.mu.Unlock()
	if err != nil {
		return &os.PathError{Op: "sync", Path: ff.Name(), Err: err}
	}
	return ff.FSFile.Sync()
}
