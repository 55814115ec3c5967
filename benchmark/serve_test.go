package main

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

var testWarm = []request{
	{class: classWarm, route: "experiment", method: "GET", path: "/experiment/mlab?seed=42", want: 200, key: "json/mlab"},
	{class: classWarm, route: "query", method: "POST", path: "/query", body: queryBody(goldenSeed), want: 200, key: "query/42"},
}

// coldKeys lists the cold requests' identities (path plus body).
func coldKeys(s schedule) []string {
	var keys []string
	for _, c := range s.cold {
		keys = append(keys, c.req.path+" "+c.req.body)
	}
	return keys
}

func TestScheduleIsDeterministicFromTheSeed(t *testing.T) {
	a := buildSchedule(7, 12*time.Second, testWarm)
	b := buildSchedule(7, 12*time.Second, testWarm)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := buildSchedule(8, 12*time.Second, testWarm)
	ka, kc := coldKeys(a), coldKeys(c)
	shared := map[string]bool{}
	for _, k := range ka {
		shared[k] = true
	}
	for _, k := range kc {
		if shared[k] {
			t.Errorf("seeds 7 and 8 share cold key %s", k)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	window := 12 * time.Second
	s := buildSchedule(3, window, testWarm)
	if n := s.size(); n != 1320 {
		t.Fatalf("size %d, want rate × window = 1320", n)
	}
	count := map[string]int{}
	seen := map[string]bool{}
	for _, c := range s.cold {
		count[c.req.class]++
		key := c.req.path + " " + c.req.body
		if seen[key] {
			t.Errorf("cold key repeats: %s", key)
		}
		seen[key] = true
		if strings.Contains(key, "seed=42&") || strings.HasSuffix(c.req.path, "seed=42") || strings.Contains(key, `"seed":42}`) {
			t.Errorf("cold key uses the warm seed: %s", key)
		}
	}
	for _, w := range s.warm {
		count[w.req.class]++
		if w.due < 0 || w.due >= window {
			t.Errorf("warm request due at %v, outside the window", w.due)
		}
	}
	want := map[string]int{classHeavy: heavyQueries + heavyTable1, classTail: 20, classCheap: 20, classRefused: 13, classWarm: 1261}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("class counts %v, want %v", count, want)
	}
	// The p99 rank (13 samples beyond it) must fall inside the tail class:
	// fewer heavy requests above it than samples beyond, more with the
	// tail class added.
	beyond := s.size() - 1307
	if !(count[classHeavy] < beyond && count[classHeavy]+count[classTail] > beyond) {
		t.Errorf("p99 does not fall inside the tail class: %d heavy, %d tail, %d beyond", count[classHeavy], count[classTail], beyond)
	}
	for i := 1; i < len(s.cold); i++ {
		prev := s.cold[i-1]
		if gap := s.cold[i].due - prev.due; gap < prev.req.slot {
			t.Errorf("cold request %d due %v after the previous, inside its %v slot", i, gap, prev.req.slot)
		}
	}
	if last := s.cold[len(s.cold)-1]; last.due >= window {
		t.Errorf("last cold request due at %v, past the window", last.due)
	}
	for i := 1; i < len(s.warm); i++ {
		if s.warm[i].due < s.warm[i-1].due {
			t.Fatalf("warm lane not in due order at %d", i)
		}
	}
}

func TestRunLaneTimesFromDueAndAccountsLateness(t *testing.T) {
	// Request 0 takes 30 ms, so request 1 (due at 10 ms) can only go when it
	// returns: its latency counts from its due time, but the generator is
	// not late for it. Request 2 is due after the lane is free again.
	lane := []scheduled{
		{due: 0, req: request{path: "slow"}},
		{due: 10 * time.Millisecond, req: request{path: "fast"}},
		{due: 60 * time.Millisecond, req: request{path: "fast"}},
	}
	send := func(q request) (int, []byte, error) {
		if q.path == "slow" {
			time.Sleep(30 * time.Millisecond)
		}
		return 200, nil, nil
	}
	t0 := time.Now().Add(5 * time.Millisecond)
	got := runLane(context.Background(), t0, lane, send)
	if len(got) != 3 {
		t.Fatalf("%d results, want 3", len(got))
	}
	for i, s := range got {
		if want := t0.Add(lane[i].due); !s.due.Equal(want) {
			t.Errorf("request %d: due %v, want %v", i, s.due, want)
		}
		if s.send.Before(s.due) {
			t.Errorf("request %d sent %v before it was due", i, s.due.Sub(s.send))
		}
		// Lateness is measured from when the request could first go; a
		// loaded test machine may add scheduling delay, hence the slack.
		if s.lag < 0 || s.lag > 5*time.Millisecond {
			t.Errorf("request %d: lag %v", i, s.lag)
		}
	}
	if l := got[1].latency(); l < 20*time.Millisecond {
		t.Errorf("queued request latency %v, want at least the 20 ms it waited behind the slow one", l)
	}
	if got[1].send.Before(got[0].end) {
		t.Error("request 1 went out before request 0 returned on a one-connection lane")
	}
	if l := got[2].latency(); l > 10*time.Millisecond {
		t.Errorf("unqueued request latency %v", l)
	}
}

func TestWaitUntilIsPunctual(t *testing.T) {
	var worst time.Duration
	for i := 0; i < 20; i++ {
		due := time.Now().Add(3 * time.Millisecond)
		waitUntil(due)
		late := time.Since(due)
		if late < 0 {
			t.Fatalf("woke %v early", -late)
		}
		if late > worst {
			worst = late
		}
	}
	t.Logf("worst lateness over 20 waits: %v", worst)
}
