package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEffectOutputGolden pins `dagtool -graph G -effect X,Y` for one graph
// per identification strategy: backdoor, instrument, frontdoor and none.
func TestEffectOutputGolden(t *testing.T) {
	cases := []struct {
		golden, graph, effect string
	}{
		{"running_example", "C -> R; C -> L; R -> L", "R,L"},
		{"instrument", "Z -> R; U [latent]; U -> R; U -> L; R -> L", "R,L"},
		{"frontdoor", "U [latent]; U -> X; U -> Y; X -> M; M -> Y", "X,Y"},
		{"latent", "U [latent]; U -> R; U -> L; R -> L", "R,L"},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-graph", tc.graph, "-effect", tc.effect}, strings.NewReader(""), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("output differs from golden\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}

// TestUsageErrors: a malformed -effect or flag is exit 2, a bad graph exit 1.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-graph", "C -> R", "-effect", "R"}, 2},
		{[]string{"-bogus"}, 2},
		{[]string{"-graph", "C -> "}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, strings.NewReader(""), &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
	}
}
