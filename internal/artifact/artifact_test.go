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
	// The next request must retry the build, not replay the error.
	fail = false
	v, err := GetOrBuild(ctx, s, key, spec)
	if err != nil || (*v)[0] != 1 {
		t.Fatalf("retry after failure = %v, %v", v, err)
	}
}

func TestGetOrBuildNilStore(t *testing.T) {
	ctx := context.Background()
	key, _ := NewKey("world", "s", 0, nil)
	var builds atomic.Int64
	// Fork deliberately nil: the nil-store path must not require (or call) it.
	spec := Spec[*[]int]{
		Build: func(ctx context.Context) (*[]int, error) {
			builds.Add(1)
			v := []int{5}
			return &v, nil
		},
	}
	for i := 0; i < 3; i++ {
		v, err := GetOrBuild(ctx, (*Store)(nil), key, spec)
		if err != nil || (*v)[0] != 5 {
			t.Fatalf("nil store fetch = %v, %v", v, err)
		}
	}
	if builds.Load() != 3 {
		t.Fatalf("nil store must build every time, built %d", builds.Load())
	}
	if (*Store)(nil).Stats() != (Stats{}) || (*Store)(nil).PerKey() != nil {
		t.Fatal("nil store accessors must return zero values")
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
	if With(ctx, nil) != ctx {
		t.Fatal("With(nil) must return ctx unchanged")
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
