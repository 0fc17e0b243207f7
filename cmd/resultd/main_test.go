package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// serveScaled serves h on a loopback listener with newHTTPServer's timeouts
// divided by div, so the test waits milliseconds rather than seconds.
func serveScaled(t *testing.T, div time.Duration) string {
	t.Helper()
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	srv.ReadHeaderTimeout /= div
	srv.IdleTimeout /= div
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// closedWithin reports whether the server closes conn before d passes.
func closedWithin(t *testing.T, conn net.Conn, r io.Reader, d time.Duration) bool {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(d))
	_, err := io.Copy(io.Discard, r)
	return !errors.Is(err, os.ErrDeadlineExceeded)
}

// TestHalfSentHeaderIsClosed: a client that never finishes its request
// header, or idles on a keep-alive connection, loses the connection instead
// of holding it and its goroutine forever.
func TestHalfSentHeaderIsClosed(t *testing.T) {
	addr := serveScaled(t, 100) // 50 ms header, 1.2 s idle timeout

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header line, but never the blank line that
	// ends the header.
	if _, err := io.WriteString(conn, "POST /v1/sweep HTTP/1.1\r\nHost: resultd\r\n"); err != nil {
		t.Fatal(err)
	}
	if !closedWithin(t, conn, conn, 2*time.Second) {
		t.Fatal("a half-sent request header still holds its connection after 2s")
	}

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /v1/stats HTTP/1.1\r\nHost: resultd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if !closedWithin(t, idle, br, 10*time.Second) {
		t.Fatal("an idle keep-alive connection is still open after 10s")
	}
}
