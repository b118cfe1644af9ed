package telemetry

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startBounded starts tel on a loopback port with a short body bound and
// shuts it down when the test ends.
func startBounded(t *testing.T, tel *Server, bound time.Duration) string {
	t.Helper()
	tel.bodyTimeout = bound
	addr, err := tel.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tel.Shutdown(ctx)
	})
	return addr
}

// TestStalledBodyIsDisconnected: a client that sends part of a request
// body and then nothing is answered and disconnected once the body bound
// passes, instead of holding its connection and handler goroutine forever.
func TestStalledBodyIsDisconnected(t *testing.T) {
	const bound = 200 * time.Millisecond
	tel := NewServer("r", testLogger())
	tel.Handle("/sink", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	}))
	addr := startBounded(t, tel, bound)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// One chunk of a POST /jobs spec, cut off mid-string.
	fmt.Fprint(conn, "POST /sink HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\na\r\n{\"bench\":\"\r\n")
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("connection still open %v after the request stalled: %v", elapsed, err)
	}
	if !strings.HasPrefix(string(reply), "HTTP/1.1 400") {
		t.Errorf("stalled request answered %q, want a 400", reply)
	}
	if elapsed < bound {
		t.Errorf("disconnected after %v, before the %v bound", elapsed, bound)
	}
}

// TestSlowHandlerOutlivesBodyBound: once the body has been read, the bound
// no longer applies (net/http clears the read deadline at the body's end),
// so a handler that works past it keeps its context and its client.
func TestSlowHandlerOutlivesBodyBound(t *testing.T) {
	const bound = 100 * time.Millisecond
	tel := NewServer("r", testLogger())
	tel.Handle("/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(4 * bound)
		if err := r.Context().Err(); err != nil {
			http.Error(w, "context ended: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(body)
	}))
	addr := startBounded(t, tel, bound)

	resp, err := http.Post("http://"+addr+"/slow", "application/json", strings.NewReader(`{"bench":"PF"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || string(got) != `{"bench":"PF"}` {
		t.Fatalf("slow handler replied %d %q (%v), want 200 echoing the body", resp.StatusCode, got, err)
	}
}

// TestEventsOutlivesBodyBound: an /events subscriber sends no body, so a
// stream held open well past the body bound still delivers the next event.
// A server-wide WriteTimeout of that length would end it there.
func TestEventsOutlivesBodyBound(t *testing.T) {
	const bound = 100 * time.Millisecond
	tel := NewServer("r", testLogger())
	addr := startBounded(t, tel, bound)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	time.Sleep(5 * bound)
	tel.Tracker().SweepStart("s", 1)

	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "event: sweep_start" {
			return
		}
	}
	t.Fatalf("/events ended before delivering the event sent past the bound: %v", sc.Err())
}
