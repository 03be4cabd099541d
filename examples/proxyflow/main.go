// Command proxyflow runs the entire Fig. 5 pipeline on localhost:
//
//	web server ← proxy (instruments JS) ← interpreter-as-browser
//	                ↑ results posted back              |
//	                └── human-readable report saved ←──┘
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/internal/instrument"
	"repro/internal/js/interp"
	"repro/internal/js/value"
	"repro/internal/proxy"
)

const appJS = `
// a small compute-heavy page script
var histogram = new Array(16);
for (var i = 0; i < 16; i++) { histogram[i] = 0; }
function hash(x) {
  var h = x | 0;
  h = (h ^ (h >> 4)) * 2654435761;
  return (h >>> 28) & 15;
}
for (var n = 0; n < 5000; n++) {
  histogram[hash(n)]++;
}
`

func main() {
	// 1. the web server
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		io.WriteString(w, appJS)
	}))
	defer origin.Close()

	// 2. the instrumenting proxy, saving reports to ./ceres-reports
	reportDir := filepath.Join(os.TempDir(), "ceres-reports-demo")
	p, err := proxy.NewServing(origin.URL, instrument.ModeLoops, reportDir, proxy.ServeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()
	fmt.Printf("origin: %s\nproxy:  %s\n", origin.URL, front.URL)

	// 3. the "browser" requests the page script through the proxy
	resp, err := http.Get(front.URL + "/app.js")
	if err != nil {
		log.Fatal(err)
	}
	src, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched %d bytes of instrumented JavaScript\n", len(src))

	// 4. ... and exercises it
	prog, err := interp.Load(string(src))
	if err != nil {
		log.Fatal(err)
	}
	in := interp.New()
	if err := in.Run(prog); err != nil {
		log.Fatal(err)
	}

	// 5. the page posts its profile back through the proxy
	rep, err := in.SafeCall(in.Global("__ceresReport"), value.Undefined(), nil)
	if err != nil {
		log.Fatal(err)
	}
	loops, _ := rep.Object().Get("loops")
	payload := map[string]any{
		"totalMs":  rep.Object().GetNumber("totalMs"),
		"numLoops": len(loops.Object().Elems),
	}
	body, _ := json.Marshal(payload)
	post, err := http.Post(front.URL+"/__ceres/results?page=/app.js", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	post.Body.Close()

	// 6-7. the proxy saved the report
	files, _ := filepath.Glob(filepath.Join(reportDir, "report-*.txt"))
	fmt.Printf("reports saved: %v\n", files)
	if len(files) > 0 {
		content, _ := os.ReadFile(files[len(files)-1])
		fmt.Printf("--- latest report ---\n%s", content)
	}
	stats := p.Stats()
	fmt.Printf("\nproxy stats: %d instrumented, %d passthrough, %d failures, %d rewrites (%d cache hits)\n",
		stats.Instrumented, stats.Passthrough, stats.Failures, stats.Rewrites, stats.CacheHits)
}
