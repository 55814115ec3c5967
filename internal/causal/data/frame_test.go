package data

import (
	"bytes"
	"strings"
	"testing"
)

func TestFromColumnsAndAccess(t *testing.T) {
	f, err := FromColumns(map[string][]float64{
		"rtt":   {10, 20, 30},
		"route": {0, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 3 {
		t.Fatalf("len = %d", f.Len())
	}
	if got := f.MustColumn("rtt")[1]; got != 20 {
		t.Fatalf("rtt[1] = %v", got)
	}
	if _, ok := f.Column("nope"); ok {
		t.Fatal("missing column reported present")
	}
	if !f.Has("route") {
		t.Fatal("Has failed")
	}
}

func TestLengthMismatchRejected(t *testing.T) {
	if _, err := FromColumns(map[string][]float64{"a": {1}, "b": {1, 2}}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	f := New()
	if err := f.AddColumn("a", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddColumn("a", []float64{3, 4}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestFilter(t *testing.T) {
	f, _ := FromColumns(map[string][]float64{
		"rtt":     {10, 50, 20, 60},
		"treated": {0, 1, 0, 1},
	})
	hi := f.Filter(func(r map[string]float64) bool { return r["treated"] == 1 })
	if hi.Len() != 2 || hi.MustColumn("rtt")[0] != 50 {
		t.Fatalf("filter = %v", hi.MustColumn("rtt"))
	}
}

func TestWriteCSV(t *testing.T) {
	f, _ := FromColumns(map[string][]float64{
		"a": {1.5, -2, 3e10},
		"b": {0, 0.25, -1},
	})
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Shortest round-trippable formatting: every value parses back exactly.
	want := "a,b\n1.5,0\n-2,0.25\n3e+10,-1\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteCSV = %q, want %q", got, want)
	}
}

func TestMustColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().MustColumn("x")
}

func TestDescribe(t *testing.T) {
	f, _ := FromColumns(map[string][]float64{
		"rtt": {1, 2, 3, 4},
		"one": {5},
	})
	_ = f // lengths differ: FromColumns must have failed
	g, err := FromColumns(map[string][]float64{"rtt": {1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	out := g.Describe()
	if !strings.Contains(out, "rtt") || !strings.Contains(out, "2.500") {
		t.Fatalf("describe = %q", out)
	}
	empty := New()
	_ = empty.AddColumn("x", nil)
	if d := empty.Describe(); !strings.Contains(d, "x") {
		t.Fatalf("empty describe = %q", d)
	}
}
