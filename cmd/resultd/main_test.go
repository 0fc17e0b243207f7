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

// getHealthz sends one GET /healthz on conn.
func getHealthz(t *testing.T, conn net.Conn) {
	t.Helper()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: resultd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
}

// TestConnectionCap: at the cap, a new client waits unanswered until an
// open connection closes, and is then served.
func TestConnectionCap(t *testing.T) {
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(limitListener(ln, 2))
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

	// Two clients are served and keep their connections open.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		getHealthz(t, conn)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		held = append(held, conn)
	}

	third, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	getHealthz(t, third)
	third.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := third.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a third connection over a cap of 2 was answered (%d bytes, err %v)", n, err)
	}

	held[0].Close()
	third.SetReadDeadline(time.Now().Add(time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(third), nil)
	if err != nil {
		t.Fatalf("the third connection was not served within 1s of a slot freeing: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %s", resp.Status)
	}
}

// TestCapConnFreesSlotOnce: closing a connection twice frees one slot, so
// the cap still holds against the connections open after it.
func TestCapConnFreesSlotOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := limitListener(ln, 1)
	defer l.Close()
	accepted := make(chan net.Conn, 3)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}

	first := <-accepted
	first.Close()
	first.Close()
	second := <-accepted
	defer second.Close()
	select {
	case c := <-accepted:
		c.Close()
		t.Fatal("a double Close freed two slots: a second connection is open beside the first's successor")
	case <-time.After(200 * time.Millisecond):
	}
}
