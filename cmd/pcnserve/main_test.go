package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts pins the daemon's connection limits: header
// and idle timeouts are set, and no write or whole-request read timeout
// can cut a long-lived NDJSON stream.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer(h)
	if s.Handler != h {
		t.Fatal("handler not installed")
	}
	if s.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want positive %v", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want positive %v", s.IdleTimeout, idleTimeout)
	}
	if s.WriteTimeout != 0 || s.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; both must be 0 for streamed responses",
			s.WriteTimeout, s.ReadTimeout)
	}
}
