package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestOutputDigests pins the bytes netsim prints for a 72-hour run with a
// join at hour 48: the measurement CSV and the per-unit summary. The
// command drives its own engine, prober and user model loop, so this is
// what holds that loop to the simulation it has always run.
func TestOutputDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"csv", []string{"-hours", "72", "-join", "48", "-seed", "42"},
			"7877f953875fcddefde30e4a62b423c81f7530840ae78ff07a4386724665a280"},
		{"summary", []string{"-hours", "72", "-join", "48", "-seed", "42", "-summary"},
			"3e9fe9767c3fea180c26f509b123b7468d894761428eb58359977c8fe659ecf0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("sha256 = %s, want %s (%d bytes)", got, tc.want, out.Len())
			}
		})
	}
}

// TestUsageError: an unknown flag is a usage error, which main turns into
// exit status 2.
func TestUsageError(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-bogus"}, &out)
	if _, ok := err.(usageError); !ok {
		t.Fatalf("run(-bogus) = %v, want a usageError", err)
	}
}
