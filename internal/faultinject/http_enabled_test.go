//go:build faultinject

package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// okHandler is a well-behaved endpoint gated on an HTTPPoint, the way the
// jobs server wires every route.
func okHandler(point string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if HTTPPoint(point, w) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`)
	})
}

// TestHTTPPoint500: an armed http500 point answers the nth request with a
// 500 naming the point; other requests pass through untouched.
func TestHTTPPoint500(t *testing.T) {
	Reset()
	defer Reset()
	Arm("t.http.500", Rule{Action: ActionHTTPError, Nth: 2})
	srv := httptest.NewServer(okHandler("t.http.500"))
	defer srv.Close()

	for i, wantCode := range []int{200, 500, 200} {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("request %d: code %d, want %d", i+1, resp.StatusCode, wantCode)
		}
		if wantCode == 500 && !strings.Contains(string(body), "t.http.500") {
			t.Fatalf("500 body does not name the point: %q", body)
		}
		if wantCode == 200 && strings.TrimSpace(string(body)) != `{"ok":true}` {
			t.Fatalf("request %d: unexpected body %q", i+1, body)
		}
	}
}

// TestHTTPPointDrop: a drop point writes a partial body then kills the
// connection; the client observes a truncated response, and the server
// survives to serve the next request.
func TestHTTPPointDrop(t *testing.T) {
	Reset()
	defer Reset()
	Arm("t.http.drop", Rule{Action: ActionHTTPDrop, Nth: 1})
	srv := httptest.NewServer(okHandler("t.http.drop"))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err == nil {
		// The partial write may arrive as a readable prefix followed by a
		// read error, depending on flush timing.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatalf("expected a truncated body, got a clean read: %q", body)
		}
		if !errors.Is(rerr, io.ErrUnexpectedEOF) && !strings.Contains(rerr.Error(), "EOF") &&
			!strings.Contains(rerr.Error(), "reset") {
			t.Fatalf("unexpected read error: %v", rerr)
		}
	}
	// The abort is per-connection: the server must still answer.
	resp2, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("request after drop: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("request after drop: code %d", resp2.StatusCode)
	}
}

// TestHTTPPointStall: an armed delay stalls the handler for Rule.Delay and
// then lets the request proceed normally.
func TestHTTPPointStall(t *testing.T) {
	Reset()
	defer Reset()
	const d = 60 * time.Millisecond
	Arm("t.http.stall", Rule{Action: ActionDelay, Delay: d, Nth: 1})
	srv := httptest.NewServer(okHandler("t.http.stall"))
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("stalled request returned in %v, want >= %v", elapsed, d)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("stalled request: code %d", resp.StatusCode)
	}
}

// TestHTTPPointPlainActionFallthrough: a non-HTTP action armed at an HTTP
// site fires exactly like a plain Point (here: panic, recovered by the
// net/http per-connection handler, surfacing as a closed connection).
func TestHTTPPointPlainActionFallthrough(t *testing.T) {
	Reset()
	defer Reset()
	Arm("t.http.panic", Rule{Action: ActionPanic, Nth: 1})
	srv := httptest.NewServer(okHandler("t.http.panic"))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("expected a connection error from the in-handler panic, got %d", resp.StatusCode)
	}
}
