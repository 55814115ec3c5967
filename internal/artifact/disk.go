package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// Disk file layout inside the cache dir:
//
//	<kind>-<sha256 of Key.ID()>.art   one verified envelope per artifact
//	<kind>-<...>.art.lock             per-key build lock (flock, advisory)
//	gc.lock                           GC mutual exclusion across processes
//	.tmp-*                            in-flight writes (renamed or GC'd)
//
// Correctness never depends on the locks: writes are temp+fsync+rename
// atomic, every read re-verifies the envelope, and concurrent builders of
// one key write identical bytes (builds are pure functions of the key), so
// last-rename-wins is safe. The locks only keep a fleet of processes from
// duplicating expensive build work.
const (
	artSuffix = ".art"
	tmpPrefix = ".tmp-"
	// tmpMaxAge is how old an orphaned temp file (a crashed writer's
	// leftovers) must be before GC collects it — generous enough that no
	// live writer can lose its in-flight file.
	tmpMaxAge = 15 * time.Minute
)

// DefaultDiskMaxBytes bounds the cache dir when DiskConfig.MaxBytes is 0.
const DefaultDiskMaxBytes = int64(4) << 30

// DiskConfig configures OpenDisk.
type DiskConfig struct {
	// Dir is the cache directory (created if missing). Required.
	Dir string
	// Fingerprint identifies the builder code; files written under a
	// different fingerprint read as stale and rebuild. Use
	// BinaryFingerprint() unless a test needs a pinned value. Required.
	Fingerprint string
	// MaxBytes bounds the directory's artifact bytes, oldest files evicted
	// first (0 = DefaultDiskMaxBytes, negative = unbounded).
	MaxBytes int64
	// MaxAge evicts artifacts older than this at GC time (0 = no age bound).
	MaxAge time.Duration
	// FS is the filesystem seam (nil = OSFS). Tests inject FaultFS here.
	FS FSOps
	// Log receives the once-per-failure-class diagnostics (nil = stderr).
	Log func(format string, args ...any)
}

// Disk is the persistent tier under a Store: content-addressed, verified,
// crash-safe artifact files. All methods are safe for concurrent use, and a
// directory may be shared by any number of processes.
type Disk struct {
	dir         string
	fingerprint string
	maxBytes    int64
	maxAge      time.Duration
	fsOps       FSOps
	log         func(format string, args ...any)
	logged      sync.Map // failure class -> logged marker
}

// OpenDisk opens (creating if needed) a cache directory and sweeps it once:
// orphaned temp files and over-budget or over-age artifacts are collected
// before the first read. The sweep is best-effort — a GC problem disables
// nothing.
func OpenDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("artifact: OpenDisk: empty cache dir")
	}
	if cfg.Fingerprint == "" {
		return nil, fmt.Errorf("artifact: OpenDisk: empty fingerprint (use BinaryFingerprint())")
	}
	d := &Disk{
		dir:         cfg.Dir,
		fingerprint: cfg.Fingerprint,
		maxBytes:    cfg.MaxBytes,
		maxAge:      cfg.MaxAge,
		fsOps:       cfg.FS,
		log:         cfg.Log,
	}
	if d.maxBytes == 0 {
		d.maxBytes = DefaultDiskMaxBytes
	}
	if d.fsOps == nil {
		d.fsOps = OSFS{}
	}
	if d.log == nil {
		d.log = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "sisyphus: "+format+"\n", args...) }
	}
	if err := d.fsOps.MkdirAll(d.dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: OpenDisk: %w", err)
	}
	if _, err := d.GC(); err != nil {
		d.logOnce("gc_error", "artifact disk: gc %s: %v", d.dir, err)
	}
	return d, nil
}

// logOnce emits one diagnostic per failure class per Disk: a corrupted
// cache dir with a thousand files should not produce a thousand log lines,
// just counters plus one explanation each for the first corruption, the
// first staleness, the first I/O error, and so on.
func (d *Disk) logOnce(class, format string, args ...any) {
	if _, loaded := d.logged.LoadOrStore(class, struct{}{}); loaded {
		return
	}
	d.log(format, args...)
}

// BinaryFingerprint derives a builder-code fingerprint from the running
// binary: toolchain version, module version, and the VCS revision/dirty bit
// when the build recorded them. Two builds of the same commit agree; a
// different commit (or a locally modified tree marked dirty) disagrees, so
// artifacts written by a stale binary never serve. Per-kind codec versions
// layer on top for manual schema control.
func BinaryFingerprint() string {
	h := sha256.New()
	io.WriteString(h, "sisyphus|")
	io.WriteString(h, runtime.Version())
	if bi, ok := debug.ReadBuildInfo(); ok {
		io.WriteString(h, "|"+bi.Main.Version)
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				io.WriteString(h, "|"+s.Key+"="+s.Value)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// path maps a key to its artifact file: the kind stays readable for
// operators, the full ID is collision-free via its hash.
func (d *Disk) path(key Key) string {
	sum := sha256.Sum256([]byte(key.ID()))
	return filepath.Join(d.dir, fmt.Sprintf("%s-%x%s", key.Kind, sum, artSuffix))
}

// fileFingerprint combines the binary fingerprint with one codec's version.
func (d *Disk) fileFingerprint(codecVersion string) string {
	return d.fingerprint + "|" + codecVersion
}

// diskStatus classifies one load attempt.
type diskStatus int

const (
	diskHit diskStatus = iota
	diskMiss
	diskCorrupt
	diskStale
	diskReadError
)

// load reads and verifies the artifact file for key. Misses are silent;
// every failure (I/O error, corruption, staleness) is logged once per class
// and the offending file removed, so the caller's rebuild + write-through
// replaces it. load never returns unverified bytes and never panics,
// whatever is on disk.
func (d *Disk) load(key Key, codecVersion string) ([]byte, diskStatus) {
	path := d.path(key)
	data, err := d.fsOps.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, diskMiss
		}
		d.logOnce("read_error", "artifact disk: read %s: %v (rebuilding)", path, err)
		return nil, diskReadError
	}
	payload, err := DecodeFile(data, key.Kind, key.ID(), d.fileFingerprint(codecVersion))
	if err != nil {
		status, class := diskCorrupt, "corrupt"
		if errors.Is(err, ErrStale) {
			status, class = diskStale, "stale"
		}
		d.discard(key, class, err)
		return nil, status
	}
	return payload, diskHit
}

// discard removes a bad artifact file, logging the reason once per class.
func (d *Disk) discard(key Key, class string, reason error) {
	path := d.path(key)
	d.logOnce(class, "artifact disk: %s: %v (rebuilding)", path, reason)
	_ = d.fsOps.Remove(path)
}

// save writes the artifact crash-safely: unique temp file, full write,
// fsync, atomic rename over the final name, directory fsync. Any failure
// cleans up the temp file and reports an error; a reader can never observe
// a half-written artifact under the final name.
func (d *Disk) save(key Key, codecVersion string, payload []byte) error {
	data := EncodeFile(key.Kind, key.ID(), d.fileFingerprint(codecVersion), payload)
	if err := d.fsOps.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	f, err := d.fsOps.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		_ = d.fsOps.Remove(tmp)
		return err
	}
	if n, err := f.Write(data); err != nil {
		return cleanup(err)
	} else if n != len(data) {
		return cleanup(fmt.Errorf("short write: %d of %d bytes", n, len(data)))
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		_ = d.fsOps.Remove(tmp)
		return err
	}
	if err := d.fsOps.Rename(tmp, d.path(key)); err != nil {
		_ = d.fsOps.Remove(tmp)
		return err
	}
	if err := d.fsOps.SyncDir(d.dir); err != nil {
		// The rename landed; only its durability across a power cut is in
		// doubt. Surface it as a write error without undoing the file.
		return err
	}
	return nil
}

// lockKey serializes builders of one key across processes: at most one
// holder per artifact file. It polls (flock has no ctx-aware wait) and
// reports whether it had to wait — a waiter should re-probe the disk before
// building, because the previous holder likely just wrote the artifact.
// On filesystems without flock support it degrades to lockless operation.
func (d *Disk) lockKey(ctx context.Context, key Key) (release func(), waited bool, err error) {
	path := d.path(key) + ".lock"
	for {
		l, lerr := tryFlock(path)
		if lerr != nil {
			d.logOnce("lock_error", "artifact disk: lock %s: %v (continuing lockless)", path, lerr)
			return func() {}, waited, nil
		}
		if l != nil {
			return l.release, waited, nil
		}
		waited = true
		select {
		case <-ctx.Done():
			return func() {}, waited, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// GCStats reports one GC sweep.
type GCStats struct {
	// Removed and RemovedBytes count collected files (artifacts and
	// orphaned temp files alike).
	Removed      int
	RemovedBytes int64
	// Skipped is set when another process held gc.lock (or the filesystem
	// cannot lock); the sweep was left to the holder.
	Skipped bool
}

// GC bounds the cache directory: orphaned temp files past tmpMaxAge, then
// artifacts past MaxAge, then — oldest first — artifacts beyond MaxBytes.
// One process sweeps at a time (gc.lock); contenders skip rather than wait.
func (d *Disk) GC() (GCStats, error) {
	var st GCStats
	lock, err := tryFlock(filepath.Join(d.dir, "gc.lock"))
	if err != nil || lock == nil {
		st.Skipped = true
		return st, nil
	}
	defer lock.release()
	entries, err := d.fsOps.ReadDir(d.dir)
	if err != nil {
		return st, err
	}
	type artFile struct {
		name  string
		size  int64
		mtime time.Time
	}
	var arts []artFile
	now := time.Now()
	remove := func(name string, size int64) {
		if d.fsOps.Remove(filepath.Join(d.dir, name)) == nil {
			st.Removed++
			st.RemovedBytes += size
		}
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		info, ierr := e.Info()
		if ierr != nil {
			continue // raced with a concurrent remove
		}
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			if now.Sub(info.ModTime()) > tmpMaxAge {
				remove(name, info.Size())
			}
		case strings.HasSuffix(name, artSuffix):
			if d.maxAge > 0 && now.Sub(info.ModTime()) > d.maxAge {
				remove(name, info.Size())
				continue
			}
			arts = append(arts, artFile{name: name, size: info.Size(), mtime: info.ModTime()})
		}
		// Lock files and anything else stay.
	}
	if d.maxBytes < 0 {
		return st, nil
	}
	sort.Slice(arts, func(i, j int) bool {
		if !arts[i].mtime.Equal(arts[j].mtime) {
			return arts[i].mtime.Before(arts[j].mtime)
		}
		return arts[i].name < arts[j].name
	})
	var total int64
	for _, a := range arts {
		total += a.size
	}
	for _, a := range arts {
		if total <= d.maxBytes {
			break
		}
		remove(a.name, a.size)
		total -= a.size
	}
	return st, nil
}
