package platform

import (
	"strings"
	"testing"

	"sisyphus/internal/probe"
)

// ids builds baseline records with the given IDs.
func ids(id ...int) []*probe.Measurement {
	ms := make([]*probe.Measurement, len(id))
	for i, v := range id {
		ms[i] = &probe.Measurement{ID: v, Intent: probe.IntentBaseline}
	}
	return ms
}

// storedIDs lists the store's IDs in order.
func storedIDs(s *Store) []int {
	var out []int
	for _, m := range s.All() {
		out = append(out, m.ID)
	}
	return out
}

// TestStoreAddIDEdgeCases holds Add's uniqueness check across its two
// regimes — no index while IDs arrive increasing, the ID index from the
// first one that does not — to one rule: a record whose ID the store holds
// is refused, with everything after it in the same call, and the records
// before it stay.
func TestStoreAddIDEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		adds    [][]int
		wantErr string // the failing call's error, "" for none
		want    []int  // the stored IDs afterwards
	}{
		{"increasing across calls", [][]int{{1, 2, 5}, {6}, {9, 10}}, "", []int{1, 2, 5, 6, 9, 10}},
		{"duplicate of the last after an increasing run", [][]int{{1, 2, 3}, {3}}, "duplicate measurement ID 3", []int{1, 2, 3}},
		{"duplicate of an early ID after an increasing run", [][]int{{1, 2, 3}, {4, 2, 5}}, "duplicate measurement ID 2", []int{1, 2, 3, 4}},
		{"duplicate within one call", [][]int{{7, 8, 8, 9}}, "duplicate measurement ID 8", []int{7, 8}},
		{"out of order, all distinct", [][]int{{5, 3}, {4, 1}, {9}}, "", []int{5, 3, 4, 1, 9}},
		{"duplicate after going out of order", [][]int{{5, 3}, {6, 7}, {3}}, "duplicate measurement ID 3", []int{5, 3, 6, 7}},
		{"duplicate of a later-added ID after going out of order", [][]int{{2, 1}, {8, 9, 8}}, "duplicate measurement ID 8", []int{2, 1, 8, 9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewStore()
			var err error
			for _, add := range c.adds {
				if err = s.Add(ids(add...)...); err != nil {
					break
				}
			}
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("Add: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("Add: err = %v, want %q", err, c.wantErr)
			}
			got := storedIDs(s)
			if len(got) != len(c.want) {
				t.Fatalf("stored %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("stored %v, want %v", got, c.want)
				}
			}
			if cov := s.TotalCoverage(); cov.Scheduled != len(c.want) {
				t.Fatalf("coverage counts %d records, the store holds %d", cov.Scheduled, len(c.want))
			}
		})
	}
}
