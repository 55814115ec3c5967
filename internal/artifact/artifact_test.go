package artifact

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// keyCfg is a test config; FieldB before FieldA in construction order below
// exercises the declaration-order canonicalization.
type keyCfg struct {
	FieldA int
	FieldB string
	Skip   string `json:"-"`
}

func TestKeyCanonicalization(t *testing.T) {
	// Equal configs, different construction order, equal keys.
	k1, err := NewKey("world", "southafrica", 0, keyCfg{FieldA: 1, FieldB: "x"})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKey("world", "southafrica", 0, keyCfg{FieldB: "x", FieldA: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("equal configs produced distinct keys: %v vs %v", k1, k2)
	}

	// json:"-" fields must not participate: analysis-side knobs share builds.
	k3, err := NewKey("world", "southafrica", 0, keyCfg{FieldA: 1, FieldB: "x", Skip: "different"})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k3 {
		t.Fatalf(`json:"-" field leaked into the key: %v vs %v`, k1, k3)
	}

	// Map configs canonicalize by sorted key regardless of insertion order.
	m1 := map[string]int{"a": 1, "b": 2}
	m2 := map[string]int{"b": 2, "a": 1}
	km1, _ := NewKey("k", "s", 0, m1)
	km2, _ := NewKey("k", "s", 0, m2)
	if km1 != km2 {
		t.Fatalf("map insertion order changed the key")
	}

	// Nil config is the sentinel hash, stable across calls.
	kn1, _ := NewKey("rib", "southafrica", 0, nil)
	kn2, _ := NewKey("rib", "southafrica", 0, nil)
	if kn1 != kn2 || kn1.ConfigHash != "-" {
		t.Fatalf("nil config keys = %v, %v", kn1, kn2)
	}
}

func TestKeyNeverCollides(t *testing.T) {
	seen := make(map[Key]string)
	record := func(desc string, k Key, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision: %q and %q both map to %v", prev, desc, k)
		}
		seen[k] = desc
	}
	// Sweep each coordinate independently: kind, scenario, seed, config.
	for _, kind := range []string{"world", "rib", "campaign"} {
		for _, sc := range []string{"southafrica", "tromboneera"} {
			for seed := uint64(0); seed < 4; seed++ {
				for cfgv := 0; cfgv < 4; cfgv++ {
					k, err := NewKey(kind, sc, seed, keyCfg{FieldA: cfgv})
					record(fmt.Sprintf("%s/%s/%d/%d", kind, sc, seed, cfgv), k, err)
				}
				k, err := NewKey(kind, sc, seed, nil)
				record(fmt.Sprintf("%s/%s/%d/nil", kind, sc, seed), k, err)
			}
		}
	}
}

func TestKeyRejectsUnmarshalable(t *testing.T) {
	if _, err := NewKey("k", "s", 0, func() {}); err == nil {
		t.Fatal("func config must error, not hash")
	}
}

func TestKeyString(t *testing.T) {
	k, _ := NewKey("campaign", "southafrica", 42, keyCfg{FieldA: 7})
	s := k.String()
	if !strings.HasPrefix(s, "campaign/southafrica/seed42/") {
		t.Fatalf("String() = %q", s)
	}
	if got := len(s) - len("campaign/southafrica/seed42/"); got != 12 {
		t.Fatalf("hash prefix length = %d, want 12", got)
	}
}

// boxSpec builds *[]int artifacts so mutation through the returned pointer is
// observable if forking ever breaks.
func boxSpec(builds *atomic.Int64, val []int) Spec[*[]int] {
	return Spec[*[]int]{
		Build: func(ctx context.Context) (*[]int, error) {
			if builds != nil {
				builds.Add(1)
			}
			v := append([]int(nil), val...)
			return &v, nil
		},
		Fork: func(p *[]int) *[]int {
			v := append([]int(nil), *p...)
			return &v
		},
		Size: func(p *[]int) int64 { return int64(8 * len(*p)) },
	}
}

// TestHitWithoutRecorderAllocatesNothing is the store's half of the
// zero-cost-when-off invariant: with no obs recorder on the context, a
// cache hit whose Fork returns its argument allocates nothing — the
// per-key metric labels are never built.
func TestHitWithoutRecorderAllocatesNothing(t *testing.T) {
	s := NewStore()
	key, err := NewKey("world", "southafrica", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := 7
	spec := Spec[*int]{
		Build: func(context.Context) (*int, error) { return &v, nil },
		Fork:  func(p *int) *int { return p },
	}
	ctx := context.Background()
	if _, err := GetOrBuild(ctx, s, key, spec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := GetOrBuild(ctx, s, key, spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder cache hit allocates %.1f objects/op, want 0", allocs)
	}
	if st := s.Stats(); st.Hits < 200 || st.Builds != 1 {
		t.Fatalf("stats %+v: want one build and every later call a hit", st)
	}
}

func TestGetOrBuildBuildsOnce(t *testing.T) {
	ctx := context.Background()
	s := NewStore()
	key, _ := NewKey("world", "s", 0, nil)
	var builds atomic.Int64
	spec := boxSpec(&builds, []int{1, 2, 3})
	for i := 0; i < 5; i++ {
		v, err := GetOrBuild(ctx, s, key, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(*v) != 3 {
			t.Fatalf("fetch %d: %v", i, *v)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", builds.Load())
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 4 || st.Builds != 1 || st.Entries != 1 || st.Bytes != 24 {
		t.Fatalf("stats = %+v", st)
	}
	pk := s.PerKey()[key]
	if pk.Builds != 1 || pk.Misses != 1 || pk.Hits != 4 {
		t.Fatalf("per-key stats = %+v", pk)
	}
}

func TestGetOrBuildMutationSafety(t *testing.T) {
	ctx := context.Background()
	s := NewStore()
	key, _ := NewKey("world", "s", 0, nil)
	spec := boxSpec(nil, []int{10, 20})

	// The builder's own return value must already be a fork: mutating it
	// cannot perturb later fetches.
	first, err := GetOrBuild(ctx, s, key, spec)
	if err != nil {
		t.Fatal(err)
	}
	(*first)[0] = -1
	*first = append(*first, 999)

	second, err := GetOrBuild(ctx, s, key, spec)
	if err != nil {
		t.Fatal(err)
	}
	if (*second)[0] != 10 || len(*second) != 2 {
		t.Fatalf("stored artifact perturbed by caller mutation: %v", *second)
	}
	// And forks are independent of each other.
	(*second)[1] = -2
	third, _ := GetOrBuild(ctx, s, key, spec)
	if (*third)[1] != 20 {
		t.Fatalf("forks share state: %v", *third)
	}
}

func TestGetOrBuildSingleflight(t *testing.T) {
	ctx := context.Background()
	s := NewStore()
	key, _ := NewKey("world", "s", 0, nil)
	var builds atomic.Int64
	release := make(chan struct{})
	spec := Spec[*[]int]{
		Build: func(ctx context.Context) (*[]int, error) {
			builds.Add(1)
			<-release // hold the build so every goroutine piles onto one flight
			v := []int{7}
			return &v, nil
		},
		Fork: boxSpec(nil, nil).Fork,
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	vals := make([]*[]int, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			vals[i], errs[i] = GetOrBuild(ctx, s, key, spec)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", builds.Load())
	}
	forked := make(map[*[]int]bool)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if (*vals[i])[0] != 7 {
			t.Fatalf("goroutine %d got %v", i, *vals[i])
		}
		if forked[vals[i]] {
			t.Fatalf("two goroutines share one fork")
		}
		forked[vals[i]] = true
	}
	if st := s.Stats(); st.Builds != 1 || st.Hits+st.Misses != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetOrBuildErrorsNotCached(t *testing.T) {
	ctx := context.Background()
	s := NewStore()
	key, _ := NewKey("world", "s", 0, nil)
	boom := errors.New("boom")
	fail := true
	spec := Spec[*[]int]{
		Build: func(ctx context.Context) (*[]int, error) {
			if fail {
				return nil, boom
			}
			v := []int{1}
			return &v, nil
		},
		Fork: boxSpec(nil, nil).Fork,
	}
	if _, err := GetOrBuild(ctx, s, key, spec); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("failed build left a resident entry: %+v", st)
	}
	if pk := s.PerKey(); len(pk) != 0 {
		t.Fatalf("failed build left per-key counters: %v", pk)
	}
	// The next request must retry the build, not replay the error.
	fail = false
	v, err := GetOrBuild(ctx, s, key, spec)
	if err != nil || (*v)[0] != 1 {
		t.Fatalf("retry after failure = %v, %v", v, err)
	}
}

// TestGetOrBuildNilStore pins the unshared store: a nil store builds on
// every call, freezes each build once, always returns a fork, requires
// Spec.Fork like any store, and keeps nothing between calls.
func TestGetOrBuildNilStore(t *testing.T) {
	ctx := context.Background()
	key, _ := NewKey("world", "s", 0, nil)
	var builds, freezes, forks atomic.Int64
	var built []*freezeBox
	spec := Spec[*freezeBox]{
		Build: func(ctx context.Context) (*freezeBox, error) {
			b := &freezeBox{v: int(builds.Add(1))}
			built = append(built, b)
			return b, nil
		},
		Freeze: func(b *freezeBox) {
			freezes.Add(1)
			b.frozen = true
		},
		Fork: func(b *freezeBox) *freezeBox {
			forks.Add(1)
			cp := *b
			return &cp
		},
	}
	for i := 1; i <= 3; i++ {
		b, err := GetOrBuild(ctx, (*Store)(nil), key, spec)
		if err != nil {
			t.Fatal(err)
		}
		// Each call's value comes from its own build: nothing was kept.
		if b.v != i || !b.frozen || b == built[i-1] {
			t.Fatalf("fetch %d = %+v: want a frozen fork of build %d", i, b, i)
		}
	}
	if got := [3]int64{builds.Load(), freezes.Load(), forks.Load()}; got != [3]int64{3, 3, 3} {
		t.Fatalf("builds, freezes, forks = %v, want one of each per call", got)
	}
	spec.Fork = nil
	if _, err := GetOrBuild(ctx, (*Store)(nil), key, spec); err == nil || !strings.Contains(err.Error(), "Fork is required") {
		t.Fatalf("err = %v, want Fork-required", err)
	}
}

func TestGetOrBuildRequiresFork(t *testing.T) {
	ctx := context.Background()
	s := NewStore()
	key, _ := NewKey("world", "s", 0, nil)
	_, err := GetOrBuild(ctx, s, key, Spec[*[]int]{
		Build: func(ctx context.Context) (*[]int, error) { v := []int{1}; return &v, nil },
	})
	if err == nil || !strings.Contains(err.Error(), "Fork is required") {
		t.Fatalf("err = %v, want Fork-required", err)
	}
}

// freezeBox is an artifact that records whether Freeze has run on it.
type freezeBox struct {
	frozen bool
	v      int
}

// TestFreezeContract pins Spec.Freeze: it runs exactly once per successful
// build, before any Fork (the builder's own return value included), so a
// nil store freezes once per fetch; never on a build that errors or panics;
// and the joiners of an in-flight build do not freeze it again.
func TestFreezeContract(t *testing.T) {
	type counts struct{ builds, freezes, forks int64 }
	cases := []struct {
		name     string
		nilStore bool
		fail     string // "error" or "panic" fails the first build only
		fetches  int    // sequential fetches of the key
		joiners  int    // concurrent fetches of the key sharing one build
		evict    bool   // fetch, evict with a second key, fetch again
		want     counts
	}{
		{name: "hits share one freeze", fetches: 3, want: counts{1, 1, 3}},
		{name: "nil store freezes once per fetch", nilStore: true, fetches: 2, want: counts{2, 2, 2}},
		{name: "failed build is not frozen", fail: "error", fetches: 2, want: counts{2, 1, 1}},
		{name: "panicking build is not frozen", fail: "panic", fetches: 2, want: counts{2, 1, 1}},
		{name: "joiners do not refreeze", joiners: 8, want: counts{1, 1, 8}},
		{name: "rebuild after eviction freezes again", evict: true, want: counts{3, 3, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var builds, freezes, forks, unfrozenForks atomic.Int64
			hold := make(chan struct{})
			if c.joiners == 0 {
				close(hold)
			}
			spec := Spec[*freezeBox]{
				Build: func(ctx context.Context) (*freezeBox, error) {
					n := builds.Add(1)
					<-hold
					if n == 1 && c.fail == "error" {
						return nil, errors.New("boom")
					}
					if n == 1 && c.fail == "panic" {
						panic("boom")
					}
					return &freezeBox{v: int(n)}, nil
				},
				Freeze: func(b *freezeBox) {
					freezes.Add(1)
					b.frozen = true
				},
				Fork: func(b *freezeBox) *freezeBox {
					forks.Add(1)
					if !b.frozen {
						unfrozenForks.Add(1)
					}
					cp := *b
					return &cp
				},
			}
			var s *Store
			switch {
			case c.evict:
				s = NewStore(WithMaxEntries(1))
			case !c.nilStore:
				s = NewStore()
			}
			key, _ := NewKey("world", "s", 0, nil)
			fetch := func(key Key) (b *freezeBox, err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return GetOrBuild(context.Background(), s, key, spec)
			}

			for i := 0; i < c.fetches; i++ {
				b, err := fetch(key)
				if i == 0 && c.fail != "" {
					if err == nil {
						t.Fatalf("first fetch succeeded; want the %s", c.fail)
					}
					continue
				}
				if err != nil {
					t.Fatalf("fetch %d: %v", i, err)
				}
				if !b.frozen {
					t.Fatalf("fetch %d returned an unfrozen value", i)
				}
			}
			if c.joiners > 0 {
				var wg sync.WaitGroup
				errs := make(chan error, c.joiners)
				for i := 0; i < c.joiners; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, err := fetch(key)
						errs <- err
					}()
				}
				// Every joiner but the builder counts its hit before parking
				// on the pending entry; release the build once all have.
				for deadline := time.Now().Add(5 * time.Second); s.Stats().Hits < int64(c.joiners-1); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("joiners never piled onto one build")
					}
				}
				close(hold)
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if c.evict {
				other, _ := NewKey("world", "other", 0, nil)
				for _, k := range []Key{key, other, key} {
					if _, err := fetch(k); err != nil {
						t.Fatal(err)
					}
				}
				if st := s.Stats(); st.Evictions != 2 {
					t.Fatalf("evictions = %d, want 2", st.Evictions)
				}
			}

			got := counts{builds.Load(), freezes.Load(), forks.Load()}
			if got != c.want {
				t.Fatalf("builds, freezes, forks = %+v, want %+v", got, c.want)
			}
			if n := unfrozenForks.Load(); n != 0 {
				t.Fatalf("%d forks were taken of a value not yet frozen", n)
			}
		})
	}
}

func TestLRUEvictsByEntryBound(t *testing.T) {
	ctx := context.Background()
	s := NewStore(WithMaxEntries(2))
	fetch := func(name string) {
		t.Helper()
		key, _ := NewKey("world", name, 0, nil)
		if _, err := GetOrBuild(ctx, s, key, boxSpec(nil, []int{1})); err != nil {
			t.Fatal(err)
		}
	}
	fetch("a")
	fetch("b")
	fetch("a") // refresh a: b becomes least recent
	fetch("c") // evicts b
	keys := s.residentIDs()
	if len(keys) != 2 {
		t.Fatalf("resident keys = %v", keys)
	}
	for _, k := range keys {
		if strings.Contains(k, "/b/") {
			t.Fatalf("b should have been evicted: %v", keys)
		}
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// The evicted key rebuilds on demand.
	fetch("b")
	if st := s.Stats(); st.Builds != 4 {
		t.Fatalf("builds = %d, want 4 (a, b, c, b again)", st.Builds)
	}
	// Per-key counters leave with their entry: a client sweeping distinct
	// keys cannot grow them past the entry bound.
	for i := 0; i < 100; i++ {
		fetch(fmt.Sprintf("k%d", i))
	}
	if n := len(s.PerKey()); n > 2 {
		t.Fatalf("PerKey holds %d keys after 100 distinct fetches at 2 entries, want <= 2", n)
	}
}

func TestLRUEvictsByByteBound(t *testing.T) {
	ctx := context.Background()
	s := NewStore(WithMaxBytes(100))
	fetch := func(name string, n int) {
		t.Helper()
		key, _ := NewKey("world", name, 0, nil)
		if _, err := GetOrBuild(ctx, s, key, boxSpec(nil, make([]int, n))); err != nil {
			t.Fatal(err)
		}
	}
	fetch("a", 8) // 64 bytes
	fetch("b", 8) // 128 total: a evicts
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != 64 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestContextCancelWhileWaiting(t *testing.T) {
	s := NewStore()
	key, _ := NewKey("world", "s", 0, nil)
	release := make(chan struct{})
	building := make(chan struct{})
	spec := Spec[*[]int]{
		Build: func(ctx context.Context) (*[]int, error) {
			close(building)
			<-release
			v := []int{1}
			return &v, nil
		},
		Fork: boxSpec(nil, nil).Fork,
	}
	done := make(chan error, 1)
	go func() {
		_, err := GetOrBuild(context.Background(), s, key, spec)
		done <- err
	}()
	<-building
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GetOrBuild(ctx, s, key, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("builder err = %v", err)
	}
}

func TestWithFromContext(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("empty context must carry no store")
	}
	if From(With(ctx, nil)) == nil {
		t.Fatal("With(nil) must attach a fresh store")
	}
	s := NewStore()
	if From(With(ctx, s)) != s {
		t.Fatal("store did not round-trip through the context")
	}
}

func TestRenderStats(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	key, _ := NewKey("world", "s", 0, nil)
	if _, err := GetOrBuild(ctx, s, key, boxSpec(nil, []int{1, 2})); err != nil {
		t.Fatal(err)
	}
	got := s.RenderStats()
	if !strings.Contains(got, "1 misses") || !strings.Contains(got, "1 builds") || !strings.Contains(got, "16 B") {
		t.Fatalf("RenderStats() = %q", got)
	}
	if !strings.HasPrefix(got, "cache: ") || strings.Count(got, ":") != 1 {
		t.Fatalf("RenderStats() = %q, want one cache: segment", got)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0 B"}, {512, "512 B"}, {2048, "2.0 KiB"},
		{3 << 20, "3.0 MiB"}, {5 << 30, "5.0 GiB"},
	}
	for _, c := range cases {
		if got := humanBytes(c.n); got != c.want {
			t.Errorf("humanBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

// residentIDs lists the resident keys' full IDs, sorted.
func (s *Store) residentIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k.ID())
	}
	sort.Strings(out)
	return out
}
