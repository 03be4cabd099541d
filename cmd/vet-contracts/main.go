// Command vet-contracts is a go vet -vettool enforcing this repo's
// cross-package API contracts — the rules that type-check fine but
// break the runtime's invariants:
//
//   - locksubmit: never call sched.Queue.Submit/SubmitWith while a
//     mutex is held. Admission can shed, run OnShed callbacks, and
//     promote inherited classes synchronously; doing that under a
//     caller's lock is a lock-order inversion waiting to happen.
//   - jobsubmit: inside a job (any function taking *sched.WorkerCtx),
//     never call Queue.Submit/SubmitWith. A job holds a worker; one
//     that re-enters admission and waits on the result can deadlock
//     the pool. Do the work inline in the job.
//   - loadshared: packages that import repro/internal/js/interp must
//     parse program text with interp.Load, not parser.Parse/MustParse.
//     Load returns shared read-only ASTs from the process-wide
//     content-addressed cache; only AST *mutators* (which must not
//     import interp) get private trees from parser.Parse.
//
// Usage:
//
//	go build -o /tmp/vet-contracts ./cmd/vet-contracts
//	go vet -vettool=/tmp/vet-contracts ./...
//
// The command speaks cmd/go's vettool protocol (-V=full, -flags, then
// one run per package with a JSON .cfg file) by hand, because the repo
// is stdlib-only — no golang.org/x/tools, so no unitchecker. Test files
// are exempt from every analyzer: tests deliberately exercise edge
// shapes (and sched's own tests submit from everywhere).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// vetConfig is the subset of cmd/go's vet .cfg payload this tool needs.
type vetConfig struct {
	ImportPath string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

func main() {
	version := flag.String("V", "", "print version (the go command passes -V=full)")
	printFlags := flag.Bool("flags", false, "print analyzer flags as JSON (vettool protocol)")
	flag.Parse()

	if *version != "" {
		// cmd/go fingerprints the tool from this exact shape:
		// "<name> version <version>".
		fmt.Printf("%s version v1\n", filepath.Base(os.Args[0]))
		return
	}
	if *printFlags {
		// No analyzer flags: the contracts are not configurable.
		fmt.Println("[]")
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vet-contracts package.cfg")
		os.Exit(1)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "vet-contracts:", err)
		os.Exit(1)
	}
}

func run(cfgPath string) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("parse %s: %w", cfgPath, err)
	}

	var findings []finding
	if !cfg.VetxOnly {
		u := &unit{fset: token.NewFileSet(), importPath: cfg.ImportPath}
		for _, name := range cfg.GoFiles {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(u.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				// A file that does not parse is the compiler's problem,
				// not the contract checker's.
				continue
			}
			u.files = append(u.files, f)
		}
		findings = analyzeUnit(u)
	}

	// The protocol requires a facts file even when there is nothing to
	// say: this tool exports no facts, so the file is empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return err
		}
	}

	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.pos, f.msg, f.analyzer)
		}
		os.Exit(2)
	}
	return nil
}
