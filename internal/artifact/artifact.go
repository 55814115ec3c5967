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
//   - Frozen-on-insert / fork-on-read: the store keeps the builder's
//     frozen original and every fetch (including the builder's own return
//     value) passes through the kind's Fork, so no caller can mutate a
//     shared artifact. Fork copies what callers write — copy-on-write where
//     the original is frozen — and shares what refuses writes: a campaign
//     fetch gets its own world fork (IXP joins, link flaps stay private)
//     and the one frozen measurement store.
//
// There is one path through the layer. A nil *Store is a store nobody
// shares: GetOrBuild builds, freezes and forks exactly as on a miss, and
// keeps nothing. Where a run starts (an experiment run, a suite, a causal
// query, a sweep grid, a server) a nil store becomes one fresh store for
// that run (OrNew, With), so a run always shares its own builds.
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
	// Fork returns a value sharing no *writable* state with its argument.
	// Every GetOrBuild return value passes through Fork, so callers may
	// write what they get. With a Freeze hook the stored original is
	// immutable, so Fork may be a pointer-cheap copy-on-write view rather
	// than a deep copy, and may share outright any part that refuses
	// writes once frozen. Required.
	Fork func(T) T
	// Freeze, if non-nil, runs exactly once on the freshly built value —
	// after a successful Build, before the value is stored or any Fork is
	// taken — marking it immutable so forks can share structure safely.
	Freeze func(T)
	// Size estimates the artifact's resident bytes for the LRU byte bound.
	// Nil counts the entry as zero bytes (the entry bound still applies).
	Size func(T) int64
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
}

// KeyStats is the per-key slice of the counters.
type KeyStats struct {
	Hits, Misses, Builds int64
}

// Store is the content-addressed artifact cache. The zero value is not
// usable; construct with NewStore. A nil *Store is an unshared store: see
// GetOrBuild.
type Store struct {
	mu         sync.Mutex
	entries    map[Key]*entry
	seq        uint64
	maxEntries int
	maxBytes   int64
	bytes      int64
	stats      Stats
	perKey     map[Key]*KeyStats
}

// Option tweaks a Store at construction.
type Option func(*Store)

// WithMaxEntries bounds the number of resident artifacts (default 64).
func WithMaxEntries(n int) Option { return func(s *Store) { s.maxEntries = n } }

// WithMaxBytes bounds total estimated resident bytes (default 1 GiB).
func WithMaxBytes(n int64) Option { return func(s *Store) { s.maxBytes = n } }

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

// OrNew returns s, or a fresh store when s is nil: the store one run, grid
// or server shares when its caller passed none.
func OrNew(s *Store) *Store {
	if s == nil {
		return NewStore()
	}
	return s
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
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
// two configs whose hashes share a prefix can never fold onto one slot. A
// key's counters live as long as its entry: eviction and a failed build
// drop them, so the map is bounded by the entry bound plus in-flight
// builds.
func (s *Store) PerKey() map[Key]KeyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Key]KeyStats, len(s.perKey))
	for k, v := range s.perKey {
		out[k] = *v
	}
	return out
}

// addKeyed adds delta to the per-key obs counter prefix+key.ID(). The label
// is built only when a recorder rides ctx, so the nil-recorder path stays
// allocation-free.
func addKeyed(ctx context.Context, prefix string, key Key, delta int64) {
	if obs.From(ctx) != nil {
		obs.Add(ctx, prefix+key.ID(), delta)
	}
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
		delete(s.perKey, victim.key)
		s.bytes -= victim.size
		s.stats.Evictions++
	}
}

// GetOrBuild returns the artifact for key, building it at most once per
// residency: the first requester runs spec.Build, concurrent requesters for
// the same key block on that build (honoring ctx while they wait), and
// later requesters fork the cached value. Every successful return value is
// spec.Fork of the stored original — callers may mutate whatever the fork
// gives them that does not refuse writes.
//
// A waiter whose designated builder failed with the builder's own context
// error (cancellation or deadline) re-enters the miss path and retries,
// provided the waiter's own ctx is still live — one caller's cancelled
// build must not poison innocent concurrent requesters. Such a retry counts
// a second hit or miss for the same logical call.
//
// A nil store is a store nobody shares: the call builds, freezes and forks
// exactly as a miss does, and nothing is kept once it returns.
func GetOrBuild[T any](ctx context.Context, s *Store, key Key, spec Spec[T]) (T, error) {
	var zero T
	if spec.Fork == nil {
		return zero, fmt.Errorf("artifact: %s: Spec.Fork is required", key)
	}
	s = OrNew(s)

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
		addKeyed(ctx, "cache.hit.", key, 1)
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
	// build outside the lock.
	e = &entry{key: key, ready: make(chan struct{})}
	s.seq++
	e.lruSeq = s.seq
	s.entries[key] = e
	s.stats.Misses++
	s.keyStatsLocked(key).Misses++
	s.mu.Unlock()
	obs.Add(ctx, "cache.misses", 1)
	addKeyed(ctx, "cache.miss.", key, 1)

	val, err := func() (T, error) {
		// A build that panics abandons its entry like a failed one, so
		// waiters and later fetches are not left parked on a ready channel
		// nobody closes; the panic then goes on to the builder's caller.
		defer func() {
			if r := recover(); r != nil {
				s.abandon(key, e, fmt.Errorf("artifact: %s: build panicked: %v", key, r))
				panic(r)
			}
		}()
		return build(ctx, s, key, spec)
	}()
	if err != nil {
		s.abandon(key, e, err)
		return zero, err
	}
	if spec.Freeze != nil {
		// Freeze before the value is stored or any fork escapes: every
		// Fork — including the builder's own return value below — sees an
		// immutable original and may share structure with it.
		spec.Freeze(val)
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

// abandon removes a pending entry whose value could not be produced, with
// its counters, and releases every waiter with err. Errors are never
// cached: the next request for the key retries.
func (s *Store) abandon(key Key, e *entry, err error) {
	s.mu.Lock()
	delete(s.entries, key)
	delete(s.perKey, key)
	e.err = err
	close(e.ready)
	s.mu.Unlock()
}

// build runs spec.Build for a pending entry, counting the build and timing
// it for the per-key obs labels.
func build[T any](ctx context.Context, s *Store, key Key, spec Spec[T]) (T, error) {
	s.mu.Lock()
	s.stats.Builds++
	s.keyStatsLocked(key).Builds++
	s.mu.Unlock()
	start := time.Now()
	val, err := spec.Build(ctx)
	if err != nil {
		// The failed attempt's duration is labeled separately — folding it
		// into build_ms would pollute the successful-build timing series.
		addKeyed(ctx, "cache.build_errors.", key, 1)
		return val, err
	}
	addKeyed(ctx, "cache.build_ms.", key, time.Since(start).Milliseconds())
	return val, nil
}

// ctxKey carries the store on a context.
type ctxKey struct{}

// With attaches the store to the context, or a fresh one when s is nil,
// so every fetch under the returned context shares one store.
func With(ctx context.Context, s *Store) context.Context {
	return context.WithValue(ctx, ctxKey{}, OrNew(s))
}

// From returns the store riding the context, or nil (an unshared store).
func From(ctx context.Context) *Store {
	s, _ := ctx.Value(ctxKey{}).(*Store)
	return s
}

// RenderStats formats a one-line human-readable cache summary, sorted keys
// omitted — the per-key breakdown lives in the obs metrics table.
func (s *Store) RenderStats() string {
	st := s.Stats()
	return fmt.Sprintf("cache: %d hits, %d misses, %d builds, %d evictions, %d entries, %s resident",
		st.Hits, st.Misses, st.Builds, st.Evictions, st.Entries, humanBytes(st.Bytes))
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
