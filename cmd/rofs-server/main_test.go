package main

import (
	"net/http"
	"testing"
)

func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("server lost its handler")
	}
}
