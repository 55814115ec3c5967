package main

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestValidateServeFlags tables every flag combination the daemon refuses
// at startup; main exits 2 (usage) on each, matching the sisyphus CLI's
// convention.
func TestValidateServeFlags(t *testing.T) {
	ok := serveFlags{addr: ":8080", requestTimeout: 2 * time.Minute, maxSpans: 4096}
	cases := []struct {
		name     string
		mutate   func(*serveFlags)
		contains string // empty = valid
	}{
		{"defaults valid", func(f *serveFlags) {}, ""},
		{"admin valid", func(f *serveFlags) { f.admin = "localhost:6060" }, ""},
		{"no timeout valid", func(f *serveFlags) { f.requestTimeout = 0 }, ""},
		{"unbounded spans valid", func(f *serveFlags) { f.maxSpans = 0 }, ""},
		{"empty addr", func(f *serveFlags) { f.addr = "" }, "-addr"},
		{"negative workers", func(f *serveFlags) { f.workers = -1 }, "-workers"},
		{"negative timeout", func(f *serveFlags) { f.requestTimeout = -time.Second }, "-request-timeout"},
		{"admin collides with addr", func(f *serveFlags) { f.admin = f.addr }, "-admin"},
		{"negative span bound", func(f *serveFlags) { f.maxSpans = -1 }, "-max-spans"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.mutate(&f)
			err := validateServeFlags(f)
			if tc.contains == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), tc.contains) {
				t.Errorf("error %q does not mention %q", err, tc.contains)
			}
		})
	}
}

// TestNewHTTPServerBounds: both listeners' servers cut off slow headers and
// idle connections, and none sets a write timeout, which would truncate
// /debug/pprof/profile.
func TestNewHTTPServerBounds(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer(h)
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout=%v IdleTimeout=%v, want both bounded", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout=%v, want none: it would cut off streamed profiles", srv.WriteTimeout)
	}
	if srv.Handler == nil {
		t.Error("handler not installed")
	}
}
