// Package artifact is a content-addressed, memoizing build layer for the
// expensive deterministic stages of the pipeline: scenario worlds, converged
// BGP RIBs, and simulated measurement campaigns. The experiments are pure
// functions of ⟨artifact kind, scenario id, seed, typed config⟩, so any two
// consumers that agree on those four coordinates can share one build — the
// lever that turns the suite's Sisyphean rebuild-everything loop into a
// build-once serving layer.
//
// The three rules the layer enforces:
//
//   - Content addressing: a Key canonically hashes the four coordinates
//     (the typed config is serialized as canonical JSON, so struct-field
//     declaration order — not construction order — determines the bytes).
//     Equal inputs always collide onto one entry; distinct seeds or configs
//     never do.
//
//   - Singleflight: concurrent GetOrBuild calls for the same key block on a
//     single build. Errors are never cached — a failed build is removed and
//     every waiter sees the error, so the next request retries.
//
//   - Frozen-on-insert / copy-on-read: the store keeps the builder's
//     original and every fetch (including the builder's own return value)
//     gets a deep fork, so no caller can mutate a shared artifact. The fork
//     discipline is what lets campaigns mutate their world (IXP joins,
//     link flaps) without perturbing anyone else's fetch.
//
// A nil *Store is the universal off switch: GetOrBuild builds directly and
// returns the value unforked — exactly the code path the experiments ran
// before this layer existed, which is how `-cache=off` stays byte-identical
// to the pinned goldens by construction.
package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"sisyphus/internal/obs"
)

// Key addresses one artifact: what kind of thing it is, which scenario
// world it derives from, the seed all its randomness flows from, and a
// canonical hash of the typed config that parameterized the build. Keys are
// comparable values — two keys are equal iff every coordinate is.
type Key struct {
	// Kind names the artifact type ("world", "rib", "campaign").
	Kind string
	// Scenario is the scenario id the artifact derives from.
	Scenario string
	// Seed is the RNG root. Artifacts that draw no randomness use 0.
	Seed uint64
	// ConfigHash is the hex sha256 of the canonical JSON of the typed
	// config ("-" for a nil config).
	ConfigHash string
}

// NewKey builds a Key, canonically hashing cfg. cfg is serialized with
// encoding/json: struct fields marshal in declaration order and map keys
// sort, so equal configs hash equally no matter how they were constructed.
// Fields tagged `json:"-"` are excluded — analysis-side knobs that do not
// change the built bytes must carry that tag to maximize sharing. A config
// that cannot marshal (channels, funcs) is a caller bug and errors.
func NewKey(kind, scenarioID string, seed uint64, cfg any) (Key, error) {
	k := Key{Kind: kind, Scenario: scenarioID, Seed: seed, ConfigHash: "-"}
	if cfg != nil {
		b, err := json.Marshal(cfg)
		if err != nil {
			return Key{}, fmt.Errorf("artifact: key config for %s/%s: %w", kind, scenarioID, err)
		}
		sum := sha256.Sum256(b)
		k.ConfigHash = hex.EncodeToString(sum[:])
	}
	return k, nil
}

// String renders the key compactly for logs and human-facing summaries:
// kind/scenario/seedN/hash-prefix. The hash is truncated to 12 chars for
// readability — use ID (or the Key value itself) wherever distinctness
// matters, since two configs can share a hash prefix.
func (k Key) String() string {
	h := k.ConfigHash
	if len(h) > 12 {
		h = h[:12]
	}
	return fmt.Sprintf("%s/%s/seed%d/%s", k.Kind, k.Scenario, k.Seed, h)
}

// ID renders the key with the full config hash — collision-free by
// construction, so it is the form used for metric labels and any other
// machine-facing identity. String truncates only at render time.
func (k Key) ID() string {
	return fmt.Sprintf("%s/%s/seed%d/%s", k.Kind, k.Scenario, k.Seed, k.ConfigHash)
}

// Spec tells GetOrBuild how to construct, copy, and size one artifact type.
type Spec[T any] struct {
	// Build constructs the artifact from scratch. It must be a pure
	// function of the key's coordinates: equal keys must build equal values.
	Build func(ctx context.Context) (T, error)
	// Fork returns an independent copy sharing no *mutable* state with its
	// argument. Every GetOrBuild return value passes through Fork, so
	// callers own what they get. With a Freeze hook the stored original is
	// immutable, so Fork may be a pointer-cheap copy-on-write view rather
	// than a deep copy. Required when the store is non-nil.
	Fork func(T) T
	// Freeze, if non-nil, runs exactly once on the freshly built value —
	// after a successful Build, before the value is stored or any Fork is
	// taken — marking it immutable so forks can share structure safely.
	// The nil-store path never freezes: cache-off callers own a fully
	// mutable value, exactly as before the cache existed.
	Freeze func(T)
	// Size estimates the artifact's resident bytes for the LRU byte bound.
	// Nil counts the entry as zero bytes (the entry bound still applies).
	Size func(T) int64
	// Codec, if non-nil and the store has a disk tier, persists this
	// artifact kind across runs: misses probe the disk before building, and
	// fresh builds write through. Nil keeps the kind memory-only.
	Codec *Codec[T]
}

// entry is one cache slot. ready closes when the build finishes; val/err are
// immutable afterwards. Failed builds are removed from the store before
// ready closes, so only successful entries are ever observable in the map
// after their build completes.
type entry struct {
	key   Key
	ready chan struct{}
	val   any
	err   error
	size  int64
	// lruSeq orders ready entries for eviction; higher = more recent.
	lruSeq uint64
}

// Stats is a snapshot of store-level counters.
type Stats struct {
	// Hits and Misses count GetOrBuild calls that found / did not find a
	// completed or in-flight entry. A call that joins an in-flight build
	// counts as a hit: the work was shared.
	Hits, Misses int64
	// Builds counts builds actually executed (successful or not).
	Builds int64
	// Evictions counts entries removed by the LRU bounds.
	Evictions int64
	// Entries and Bytes describe current residency.
	Entries int
	Bytes   int64

	// Disk-tier counters; all zero without a disk tier. DiskHits counts
	// memory misses served by decoding a verified file (no Build ran);
	// DiskMisses counts probes that found no file. DiskCorrupt, DiskStale
	// and DiskReadErrors classify failed loads — each one degraded to a
	// rebuild, never to an error or a bad value. DiskWrites counts
	// successful write-throughs, DiskWriteErrors failed ones (the value
	// still served from memory).
	DiskHits, DiskMisses            int64
	DiskCorrupt, DiskStale          int64
	DiskReadErrors, DiskWriteErrors int64
	DiskWrites                      int64
}

// KeyStats is the per-key slice of the counters.
type KeyStats struct {
	Hits, Misses, Builds int64
}

// Store is the content-addressed artifact cache. The zero value is not
// usable; construct with NewStore. A nil *Store disables caching entirely.
type Store struct {
	mu         sync.Mutex
	entries    map[Key]*entry
	seq        uint64
	maxEntries int
	maxBytes   int64
	bytes      int64
	stats      Stats
	perKey     map[Key]*KeyStats
	// disk is the persistent tier, or nil for a memory-only store. Set at
	// construction, immutable afterwards.
	disk *Disk
}

// Option tweaks a Store at construction.
type Option func(*Store)

// WithMaxEntries bounds the number of resident artifacts (default 64).
func WithMaxEntries(n int) Option { return func(s *Store) { s.maxEntries = n } }

// WithMaxBytes bounds total estimated resident bytes (default 1 GiB).
func WithMaxBytes(n int64) Option { return func(s *Store) { s.maxBytes = n } }

// WithDisk attaches a persistent tier beneath the in-memory store: memory
// misses probe it before building, fresh builds write through to it, and
// every failure mode on it (corruption, staleness, I/O errors) degrades to
// a counted rebuild. Only Specs carrying a Codec participate.
func WithDisk(d *Disk) Option { return func(s *Store) { s.disk = d } }

// NewStore returns an empty store with LRU bounds.
func NewStore(opts ...Option) *Store {
	s := &Store{
		entries:    make(map[Key]*entry),
		maxEntries: 64,
		maxBytes:   1 << 30,
		perKey:     make(map[Key]*KeyStats),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	return st
}

// PerKey returns a snapshot of per-key counters keyed by the full Key
// value, letting tests assert the exactly-once build property per
// coordinate. Keying by the comparable Key — not a rendered string — means
// two configs whose hashes share a prefix can never fold onto one slot.
func (s *Store) PerKey() map[Key]KeyStats {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Key]KeyStats, len(s.perKey))
	for k, v := range s.perKey {
		out[k] = *v
	}
	return out
}

// keyStatsLocked returns the per-key counter slot, creating it if needed.
func (s *Store) keyStatsLocked(k Key) *KeyStats {
	ks := s.perKey[k]
	if ks == nil {
		ks = &KeyStats{}
		s.perKey[k] = ks
	}
	return ks
}

// evictLocked enforces the LRU bounds over ready entries. In-flight builds
// are never evicted (their size is unknown and a waiter holds them anyway).
func (s *Store) evictLocked() {
	over := func() bool {
		return len(s.entries) > s.maxEntries || s.bytes > s.maxBytes
	}
	for over() {
		var victim *entry
		for _, e := range s.entries {
			select {
			case <-e.ready:
			default:
				continue // still building
			}
			if victim == nil || e.lruSeq < victim.lruSeq {
				victim = e
			}
		}
		if victim == nil {
			return // everything resident is in flight
		}
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		s.stats.Evictions++
	}
}

// GetOrBuild returns the artifact for key, building it at most once per
// residency: the first requester runs spec.Build, concurrent requesters for
// the same key block on that build (honoring ctx while they wait), and
// later requesters fork the cached value. Every successful return value is
// spec.Fork of the stored original — callers own their copy and may mutate
// it freely.
//
// With a disk tier attached (WithDisk) and a Codec on the spec, a memory
// miss probes the disk before building — a verified file decodes, freezes
// and inserts exactly like a fresh build, without running spec.Build — and
// fresh builds write through. Any disk failure (corruption, staleness, I/O
// error) is counted and answered by building; the disk can slow this call
// down but never fail it.
//
// A waiter whose designated builder failed with the builder's own context
// error (cancellation or deadline) re-enters the miss path and retries,
// provided the waiter's own ctx is still live — one caller's cancelled
// build must not poison innocent concurrent requesters. Such a retry counts
// a second hit or miss for the same logical call.
//
// A nil store is the cache-off path: spec.Build runs directly and its value
// is returned without forking, byte-identical to pre-cache code.
func GetOrBuild[T any](ctx context.Context, s *Store, key Key, spec Spec[T]) (T, error) {
	var zero T
	if s == nil {
		return spec.Build(ctx)
	}
	if spec.Fork == nil {
		return zero, fmt.Errorf("artifact: %s: Spec.Fork is required with a live store", key)
	}

	var e *entry
	for {
		s.mu.Lock()
		found, ok := s.entries[key]
		if !ok {
			// Miss: fall through to the build path below, still holding the
			// lock, with our pending entry about to be inserted.
			break
		}
		// Hit (completed or in-flight): bump recency, then wait outside the
		// lock. Joining an in-flight build counts as a hit — the build work
		// is shared either way.
		e = found
		s.seq++
		e.lruSeq = s.seq
		s.stats.Hits++
		s.keyStatsLocked(key).Hits++
		s.mu.Unlock()
		obs.Add(ctx, "cache.hits", 1)
		obs.Add(ctx, "cache.hit."+key.ID(), 1)
		select {
		case <-e.ready:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		if e.err != nil {
			// The builder failed. If it failed because *its* context gave
			// out while ours is still live, the failure says nothing about
			// the key — the entry was already removed before ready closed,
			// so loop back and retry (possibly becoming the builder).
			if (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) && ctx.Err() == nil {
				continue
			}
			return zero, e.err
		}
		return spec.Fork(e.val.(T)), nil
	}

	// Miss: insert the pending entry (lock still held from the loop), then
	// resolve it outside the lock — from disk when possible, by building
	// otherwise.
	e = &entry{key: key, ready: make(chan struct{})}
	s.seq++
	e.lruSeq = s.seq
	s.entries[key] = e
	s.stats.Misses++
	s.keyStatsLocked(key).Misses++
	s.mu.Unlock()
	obs.Add(ctx, "cache.misses", 1)
	obs.Add(ctx, "cache.miss."+key.ID(), 1)

	val, fromDisk, err := resolveMiss(ctx, s, key, spec)
	if err != nil {
		// Errors are never cached: remove the entry so the next request
		// retries, then release every waiter with the error.
		s.mu.Lock()
		delete(s.entries, key)
		e.err = err
		close(e.ready)
		s.mu.Unlock()
		return zero, err
	}
	if spec.Freeze != nil {
		// Freeze before the value is stored or any fork escapes: every
		// Fork — including the builder's own return value below — sees an
		// immutable original and may share structure with it. Disk-loaded
		// values freeze identically: a decode must be indistinguishable
		// from a build.
		spec.Freeze(val)
	}
	if !fromDisk {
		diskSave(ctx, s, key, spec, val)
	}
	s.mu.Lock()
	e.val = val
	if spec.Size != nil {
		e.size = spec.Size(val)
	}
	s.bytes += e.size
	close(e.ready)
	s.evictLocked()
	s.mu.Unlock()
	return spec.Fork(val), nil
}

// resolveMiss produces the value for a pending entry: from the disk tier
// when a verified artifact exists, by running spec.Build otherwise. With a
// disk tier, builders of one key serialize across processes on a file lock,
// and a builder that had to wait re-probes the disk first — the previous
// holder usually just wrote the artifact this builder wanted.
func resolveMiss[T any](ctx context.Context, s *Store, key Key, spec Spec[T]) (val T, fromDisk bool, err error) {
	onDisk := s.disk != nil && spec.Codec != nil
	if onDisk {
		if val, ok := diskLoad(ctx, s, key, spec); ok {
			return val, true, nil
		}
		release, waited, lerr := s.disk.lockKey(ctx, key)
		if lerr != nil {
			return val, false, lerr // ctx gave out while waiting for the lock
		}
		defer release()
		if waited {
			if val, ok := diskLoad(ctx, s, key, spec); ok {
				return val, true, nil
			}
		}
	}
	s.mu.Lock()
	s.stats.Builds++
	s.keyStatsLocked(key).Builds++
	s.mu.Unlock()
	start := time.Now()
	val, err = spec.Build(ctx)
	if err != nil {
		// The failed attempt's duration is labeled separately — folding it
		// into build_ms would pollute the successful-build timing series.
		obs.Add(ctx, "cache.build_errors."+key.ID(), 1)
		return val, false, err
	}
	obs.Add(ctx, "cache.build_ms."+key.ID(), time.Since(start).Milliseconds())
	return val, false, nil
}

// diskLoad probes the disk tier for key and decodes what it finds. Every
// outcome is counted; every failure answer is "no" (rebuild), never an
// error. A decode failure on a verified envelope counts as corruption and
// discards the file — the payload passed its checksum but does not decode
// under this codec version, so it can never serve.
func diskLoad[T any](ctx context.Context, s *Store, key Key, spec Spec[T]) (T, bool) {
	var zero T
	payload, status := s.disk.load(key, spec.Codec.Version)
	switch status {
	case diskMiss:
		s.countDisk(&s.stats.DiskMisses)
		obs.Add(ctx, "disk.misses", 1)
		return zero, false
	case diskCorrupt:
		s.countDisk(&s.stats.DiskCorrupt)
		obs.Add(ctx, "disk.corrupt", 1)
		return zero, false
	case diskStale:
		s.countDisk(&s.stats.DiskStale)
		obs.Add(ctx, "disk.stale", 1)
		return zero, false
	case diskReadError:
		s.countDisk(&s.stats.DiskReadErrors)
		obs.Add(ctx, "disk.read_errors", 1)
		return zero, false
	}
	val, err := spec.Codec.Decode(payload)
	if err != nil {
		s.disk.discard(key, "corrupt", err)
		s.countDisk(&s.stats.DiskCorrupt)
		obs.Add(ctx, "disk.corrupt", 1)
		return zero, false
	}
	s.countDisk(&s.stats.DiskHits)
	obs.Add(ctx, "disk.hits", 1)
	obs.Add(ctx, "disk.hit."+key.ID(), 1)
	return val, true
}

// diskSave encodes a freshly built (and already frozen) value and writes it
// through to the disk tier. Failures are counted and logged once per class;
// the in-memory value serves regardless.
func diskSave[T any](ctx context.Context, s *Store, key Key, spec Spec[T], val T) {
	if s.disk == nil || spec.Codec == nil {
		return
	}
	payload, err := spec.Codec.Encode(val)
	if err != nil {
		s.disk.logOnce("encode_error", "artifact disk: encode %s: %v (not persisted)", key.ID(), err)
		s.countDisk(&s.stats.DiskWriteErrors)
		obs.Add(ctx, "disk.write_errors", 1)
		return
	}
	if err := s.disk.save(key, spec.Codec.Version, payload); err != nil {
		s.disk.logOnce("write_error", "artifact disk: write %s: %v (not persisted)", key.ID(), err)
		s.countDisk(&s.stats.DiskWriteErrors)
		obs.Add(ctx, "disk.write_errors", 1)
		return
	}
	s.countDisk(&s.stats.DiskWrites)
	obs.Add(ctx, "disk.writes", 1)
}

// countDisk bumps one disk-tier counter under the store lock.
func (s *Store) countDisk(c *int64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// ctxKey carries the store on a context.
type ctxKey struct{}

// With attaches the store to the context; a nil store returns ctx unchanged.
func With(ctx context.Context, s *Store) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// From returns the store riding the context, or nil (cache off).
func From(ctx context.Context) *Store {
	s, _ := ctx.Value(ctxKey{}).(*Store)
	return s
}

// RenderStats formats a one-line human-readable cache summary, sorted keys
// omitted — the per-key breakdown lives in the obs metrics table. With a
// disk tier attached the line grows a disk section; its exact shape is load-
// bearing for the warm-cache CI gate, which asserts "0 builds" and the
// corrupt count off this line.
func (s *Store) RenderStats() string {
	st := s.Stats()
	line := fmt.Sprintf("cache: %d hits, %d misses, %d builds, %d evictions, %d entries, %s resident",
		st.Hits, st.Misses, st.Builds, st.Evictions, st.Entries, humanBytes(st.Bytes))
	if s != nil && s.disk != nil {
		line += fmt.Sprintf(" | disk: %d hits, %d misses, %d writes, %d corrupt, %d stale, %d errors",
			st.DiskHits, st.DiskMisses, st.DiskWrites, st.DiskCorrupt, st.DiskStale,
			st.DiskReadErrors+st.DiskWriteErrors)
	}
	return line
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
