package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestFlagErrors holds that a bad command line fails before anything
// listens or is printed. -listen names an address this test holds, so a
// run that got as far as listening would fail with a different error.
func TestFlagErrors(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "nope"}, "nope"},
		{[]string{"-peers", "http://a:1,http://b:2"}, "-peers requires -cluster-self"},
		{[]string{"-cache-bytes", "0"}, "-cache-bytes must be > 0"},
		{[]string{"-peers", "http://a:1,http://b:2", "-cluster-self", "http://c:3"}, "not in the peer list"},
		{[]string{"-no-such-flag"}, "not defined"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-listen", held.Addr().String(), "-reports", t.TempDir()}, tc.args...)
		err := run(context.Background(), args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: run = %v, want an error naming %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed to stdout:\n%s", tc.args, &stdout)
		}
	}
}

// lineWriter hands each line written to it to lines.
type lineWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines chan string
}

func (w *lineWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(b)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line) // an unfinished line waits for the rest
			return len(b), nil
		}
		w.lines <- line
	}
}

// TestServeOneScriptThenShutdown starts the proxy on a free localhost
// port in front of an origin, fetches one script through it, and
// cancels: run must drain and return nil.
func TestServeOneScriptThenShutdown(t *testing.T) {
	const script = "var s = 0;\nfor (var i = 0; i < 4; i++) { s += i; }\n"
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		io.WriteString(w, script)
	}))
	defer origin.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout := &lineWriter{lines: make(chan string, 8)}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-origin", origin.URL,
			"-reports", t.TempDir(), "-rewrite-workers", "1", "-mode", "loops"}, stdout, io.Discard)
	}()

	var addr string
	select {
	case line := <-stdout.lines:
		m := regexp.MustCompile(`^ceresproxy: (127\.0\.0\.1:\d+) -> `).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("startup line %q names no listening address", line)
		}
		addr = m[1]
	case err := <-done:
		t.Fatalf("run returned before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no startup line")
	}

	resp, err := http.Get("http://" + addr + "/app.js")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET through the proxy: status %d, err %v", resp.StatusCode, err)
	}
	if string(body) == script || !strings.Contains(string(body), "s += i") {
		t.Errorf("the script came back uninstrumented or mangled:\n%s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run after cancel = %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
