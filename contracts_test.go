package repro

// The contract lint: three analyzers for the cross-package API
// contracts that type-check fine but break the runtime's invariants.
// TestContractLint runs them over every non-test .go file of the tree,
// bench/ included; test files are exempt, since tests deliberately
// exercise edge shapes (and sched's own tests submit from everywhere).
//
// All are lexical (pure go/ast, no type information — the repo is
// stdlib-only), so they over-approximate by name: any `.Lock()` is a
// mutex acquire, any `.Submit(`/`.SubmitWith(` is queue admission. That trade is deliberate: the contracts are about
// call shapes, a false negative costs a runtime deadlock, and the few
// names involved are not used for anything else in this repo.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const (
	schedPath  = "repro/internal/sched"
	interpPath = "repro/internal/js/interp"
	parserPath = "repro/internal/js/parser"
)

// finding is one contract violation.
type finding struct {
	pos      token.Position
	analyzer string
	msg      string
}

// unit is one package: the non-test files of one directory.
type unit struct {
	fset       *token.FileSet
	dir        string
	importPath string
	files      []*ast.File
}

// treeUnits parses the non-test .go files of the tree, doc comments
// kept, into one unit per directory with import path repro/<dir>.
func treeUnits(t *testing.T) []*unit {
	t.Helper()
	fset := token.NewFileSet()
	byDir := map[string]*unit{}
	var units []*unit
	for _, name := range treeGoFiles(t) {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(name))
		u := byDir[dir]
		if u == nil {
			u = &unit{fset: fset, dir: dir, importPath: "repro/" + dir}
			if dir == "." {
				u.importPath = "repro"
			}
			byDir[dir] = u
			units = append(units, u)
		}
		u.files = append(u.files, f)
	}
	return units
}

// goList runs `go list -f format ./...` in dir and returns its
// non-empty output lines.
func goList(t *testing.T, dir, format string) []string {
	t.Helper()
	cmd := exec.Command("go", "list", "-f", format, "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list ./... in %s: %v", dir, err)
	}
	return strings.Fields(string(out))
}

// goListDirs returns, relative to the root, the directory of every
// package the go command lists in the root module and in bench/'s.
func goListDirs(t *testing.T) []string {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, mod := range []string{".", "bench"} {
		for _, abs := range goList(t, mod, "{{.Dir}}") {
			rel, err := filepath.Rel(root, abs)
			if err != nil {
				t.Fatal(err)
			}
			dirs = append(dirs, filepath.ToSlash(rel))
		}
	}
	return dirs
}

// testOnlyFormat prints the directory of a package with test files and
// no other Go files.
const testOnlyFormat = "{{if not .GoFiles}}{{.Dir}}{{end}}"

// TestNoTestOnlyPackages fails when a directory of the root module or
// of bench/ holds tests alone: a test lives beside the code it tests.
func TestNoTestOnlyPackages(t *testing.T) {
	// The lint must be able to fail: in a scratch module, the directory
	// of tests alone is listed and the one with code is not.
	probe := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":            "module probe\n\ngo 1.24\n",
		"code/code.go":      "package code\n",
		"code/code_test.go": "package code\n",
		"tests/x_test.go":   "package tests\n",
	} {
		path := filepath.Join(probe, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := goList(t, probe, testOnlyFormat); len(got) != 1 || filepath.Base(got[0]) != "tests" {
		t.Fatalf("probe: test-only dirs = %q, want only tests", got)
	}

	for _, mod := range []string{".", "bench"} {
		for _, dir := range goList(t, mod, testOnlyFormat) {
			t.Errorf("%s holds tests alone; move them beside the code they test", dir)
		}
	}
}

// exportAllowlist holds the exported names under internal/ that no
// non-test code names, each with the reason it stays exported.
// A key is the package name, then the receiver or struct type for a
// method or a field, then the name.
var exportAllowlist = map[string]string{
	"parser.MustParse":              "shared test helper: tests across the tree parse their fixtures with it",
	"ast.Dump":                      "shared test helper: the parser slab and function-source tests print trees with it",
	"ast.DumpProgram":               "shared test helper: the parser, ast and splice tests print whole programs with it",
	"ast.InspectProgram":            "shared test helper: the parser and lowering tests walk every node with it",
	"lexer.ScanAll":                 "shared test helper: the lexer and front-end tests tokenize with it",
	"interp.Interp.Console":         "shared test helper: interpreter and pipeline tests compare console streams with it",
	"workloads.Bundle":              "shared test helper: the front-end, splice and proxy tests take a page-sized input from it",
	"leakcheck.Check":               "shared test helper: tests that start goroutines check for leaks with it",
	"leakcheck.Main":                "shared test helper: the TestMain of every package that starts goroutines",
	"event.taskHeap.Less":           "satisfies container/heap.Interface, which calls it",
	"event.taskHeap.Swap":           "satisfies container/heap.Interface, which calls it",
	"cluster.retryableError.Unwrap": "satisfies the interface errors.Is and errors.As call",
}

// exportDecl is one exported declaration the export lint checks.
type exportDecl struct {
	key  string // see exportAllowlist
	name string
	pos  token.Position
}

// recvTypeName is the type name of a method receiver, T or *T.
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// exportedDecls returns f's exported functions, methods, package-level
// vars and consts, and the exported fields of its package-level struct
// types.
func exportedDecls(fset *token.FileSet, f *ast.File) []exportDecl {
	var out []exportDecl
	add := func(qual string, id *ast.Ident) {
		if id.IsExported() {
			out = append(out, exportDecl{key: f.Name.Name + "." + qual + id.Name, name: id.Name, pos: fset.Position(id.Pos())})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			qual := ""
			if d.Recv != nil {
				qual = recvTypeName(d.Recv.List[0].Type) + "."
			}
			add(qual, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add("", id)
					}
				case *ast.TypeSpec:
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							add(s.Name.Name+".", id)
						}
					}
				}
			}
		}
	}
	return out
}

// unusedExports returns the exported declarations of the files under
// internal/ whose name no identifier in files uses outside the
// declaration itself, less the allowlisted ones, and the allowlist keys
// that match none of them. It matches by name alone, so a name used
// anywhere for anything passes.
func unusedExports(fset *token.FileSet, files []*ast.File, allow map[string]string) (unused []exportDecl, stale []string) {
	named := map[string]int{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				named[id.Name]++
			}
			return true
		})
	}
	matched := map[string]bool{}
	for _, f := range files {
		if !strings.HasPrefix(filepath.ToSlash(fset.Position(f.Pos()).Filename), "internal/") {
			continue
		}
		for _, d := range exportedDecls(fset, f) {
			// The declaration names it once; any other identifier of
			// that name is taken for a caller.
			if named[d.name] > 1 {
				continue
			}
			if _, ok := allow[d.key]; ok {
				matched[d.key] = true
				continue
			}
			unused = append(unused, d)
		}
	}
	for key := range allow {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	slices.Sort(stale)
	return unused, stale
}

// exportProbe is a tree in which internal/a's T.Unused, T.M, F, V and
// Helper are named nowhere but in their declarations, and Helper is
// allowlisted. C is named by V's declaration, in its own file.
var exportProbe = map[string]string{
	"internal/a/a.go": `package a
type T struct{ Used, Unused int }
func (T) M() {}
func F() {}
func Called() {}
func Helper() {}
const C = 1
var V = C
`,
	"cmd/x/main.go": `package main
func main() { _ = a.T{Used: 1}; a.Called() }
`,
}

// TestExportsHaveProductionCallers fails when an exported function,
// method, struct field, var or const under internal/ is named nowhere
// in the non-test files of the tree, bench/ included, but in its own
// declaration, and is not on exportAllowlist; and when an allowlist
// entry matches nothing. A name only tests use is surface without a
// product behind it.
func TestExportsHaveProductionCallers(t *testing.T) {
	// The lint must be able to fail: in the probe tree it reports the
	// four unnamed exports and the stale entry, and passes the rest.
	fset := token.NewFileSet()
	var probe []*ast.File
	for _, name := range slices.Sorted(maps.Keys(exportProbe)) {
		f, err := parser.ParseFile(fset, name, exportProbe[name], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		probe = append(probe, f)
	}
	unused, stale := unusedExports(fset, probe, map[string]string{"a.Helper": "", "a.Gone": ""})
	var keys []string
	for _, d := range unused {
		keys = append(keys, d.key)
	}
	if want := []string{"a.T.Unused", "a.T.M", "a.F", "a.V"}; !slices.Equal(keys, want) || !slices.Equal(stale, []string{"a.Gone"}) {
		t.Fatalf("probe: unused = %q, stale = %q; want %q and [a.Gone]", keys, stale, want)
	}

	var files []*ast.File
	units := treeUnits(t)
	for _, u := range units {
		files = append(files, u.files...)
	}
	unused, stale = unusedExports(units[0].fset, files, exportAllowlist)
	for _, d := range unused {
		t.Errorf("%s: %s is exported, but no other non-test file names it: give it a caller, delete it with its test, or allowlist it with a reason", d.pos, d.key)
	}
	for _, key := range stale {
		t.Errorf("exportAllowlist: %s matches no unnamed export; drop the entry", key)
	}
}

// TestContractLint runs the contract analyzers over every package of
// the tree. The walk is held to the go command's package list, so a
// package it skipped would not pass unchecked.
func TestContractLint(t *testing.T) {
	units := treeUnits(t)
	walked := map[string]bool{}
	for _, u := range units {
		walked[u.dir] = true
		for _, f := range analyzeUnit(u) {
			t.Errorf("%s: %s (%s)", f.pos, f.msg, f.analyzer)
		}
	}
	for _, dir := range append(goListDirs(t), "internal/proxy", "bench") {
		if !walked[dir] {
			t.Errorf("the walk missed package %s", dir)
		}
	}
}

// contractAnalyzers names each analyzer once: its findings carry the
// name, and docs/OPERATIONS.md must describe it.
var contractAnalyzers = []struct {
	name string
	run  func(*unit) []finding
}{
	{"locksubmit", lockSubmit},
	{"jobsubmit", jobSubmit},
	{"loadshared", loadShared},
}

func analyzeUnit(u *unit) []finding {
	var out []finding
	for _, a := range contractAnalyzers {
		for _, f := range a.run(u) {
			f.analyzer = a.name
			out = append(out, f)
		}
	}
	return out
}

// imports reports whether any file in the unit imports path.
func (u *unit) imports(path string) bool {
	for _, f := range u.files {
		if importName(f, path) != "" {
			return true
		}
	}
	return false
}

// importName returns the local name path is imported under in f
// (explicit alias, or the path's base name), or "" when not imported.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return p[strings.LastIndex(p, "/")+1:]
	}
	return ""
}

// exprString renders a (small) expression for diagnostics and for
// keying lock receivers.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "?"
	}
	return b.String()
}

// selCall unpacks a call through a selector: recv.Name(...).
func selCall(n ast.Node) (recv ast.Expr, name string, call *ast.CallExpr) {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, "", nil
	}
	s, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", nil
	}
	return s.X, s.Sel.Name, c
}

func isSubmitName(name string) bool { return name == "Submit" || name == "SubmitWith" }

// eachFunc visits every function body in the unit: declarations and,
// via the callback's own recursion decisions, nested literals.
func (u *unit) eachFunc(fn func(ft *ast.FuncType, body *ast.BlockStmt)) {
	for _, f := range u.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd.Type, fd.Body)
			}
		}
	}
}

// ---- locksubmit -----------------------------------------------------

// lockSubmit flags Submit/SubmitWith calls made while a mutex is
// lexically held: after x.Lock()/x.RLock() with no x.Unlock()/x.RUnlock()
// yet (a deferred Unlock holds for the rest of the body — that is the
// common shape the contract exists for). The scan is per function body;
// a nested function literal starts with nothing held (its body runs
// later, under whatever locks its caller then holds).
func lockSubmit(u *unit) []finding {
	if strings.HasPrefix(u.importPath, schedPath) {
		// The queue's own internals hold q.mu by design.
		return nil
	}
	var out []finding
	u.eachFunc(func(_ *ast.FuncType, body *ast.BlockStmt) {
		out = append(out, scanLocks(u, body)...)
	})
	return out
}

func scanLocks(u *unit, body *ast.BlockStmt) []finding {
	var out []finding
	held := map[string]token.Position{} // receiver text -> Lock position
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			out = append(out, scanLocks(u, x.Body)...)
			return false
		case *ast.DeferStmt:
			// defer x.Unlock() releases at return, not here: whatever is
			// held stays held for the statements that follow.
			return false
		case *ast.CallExpr:
			recv, name, _ := selCall(x)
			if recv == nil {
				return true
			}
			switch {
			case name == "Lock" || name == "RLock":
				held[exprString(u.fset, recv)] = u.fset.Position(x.Pos())
			case name == "Unlock" || name == "RUnlock":
				delete(held, exprString(u.fset, recv))
			case isSubmitName(name) && len(held) > 0:
				for r, at := range held {
					out = append(out, finding{
						pos: u.fset.Position(x.Pos()),
						msg: fmt.Sprintf("%s called while %s is held (locked at line %d); admission may shed and run callbacks synchronously — release the lock first",
							name, r, at.Line),
					})
				}
			}
		}
		return true
	})
	return out
}

// ---- jobsubmit ------------------------------------------------------

// jobSubmit flags Queue.Submit/SubmitWith inside a job — any function
// with a *sched.WorkerCtx parameter, nested literals included. A job
// holds a worker; one that re-enters admission and waits for the result
// can deadlock the pool (every worker waiting on work only a worker can
// run). Do the work inline in the job instead.
func jobSubmit(u *unit) []finding {
	if strings.HasPrefix(u.importPath, schedPath) {
		return nil
	}
	var out []finding
	var scan func(ft *ast.FuncType, body *ast.BlockStmt, inJob bool)
	scan = func(ft *ast.FuncType, body *ast.BlockStmt, inJob bool) {
		file := fileOf(u, body.Pos())
		if file != nil && hasWorkerCtxParam(file, ft) {
			inJob = true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				scan(x.Type, x.Body, inJob)
				return false
			case *ast.CallExpr:
				if !inJob {
					return true
				}
				if recv, name, _ := selCall(x); recv != nil && isSubmitName(name) {
					out = append(out, finding{
						pos: u.fset.Position(x.Pos()),
						msg: fmt.Sprintf("%s inside a job (function takes *sched.WorkerCtx); a job that re-enters admission and waits can deadlock the pool — do the work inline",
							name),
					})
				}
			}
			return true
		})
	}
	u.eachFunc(func(ft *ast.FuncType, body *ast.BlockStmt) { scan(ft, body, false) })
	return out
}

func fileOf(u *unit, pos token.Pos) *ast.File {
	for _, f := range u.files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// hasWorkerCtxParam reports whether ft has a parameter of type
// *sched.WorkerCtx (under whatever name sched is imported as in file).
func hasWorkerCtxParam(file *ast.File, ft *ast.FuncType) bool {
	alias := importName(file, schedPath)
	if alias == "" || ft.Params == nil {
		return false
	}
	for _, p := range ft.Params.List {
		star, ok := p.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == alias && sel.Sel.Name == "WorkerCtx" {
			return true
		}
	}
	return false
}

// ---- loadshared -----------------------------------------------------

// loadShared flags parser.Parse/parser.MustParse in packages that import
// the interpreter. Such packages execute what they parse, so they must
// go through interp.Load — the process-wide content-addressed cache of
// shared read-only ASTs — instead of reparsing per call. Packages that
// do NOT import interp are exempt: the AST mutator (instrument) needs
// private trees, and keeping it off interp is exactly what lets it
// mutate.
func loadShared(u *unit) []finding {
	if u.importPath == interpPath || !u.imports(interpPath) {
		return nil
	}
	var out []finding
	for _, f := range u.files {
		alias := importName(f, parserPath)
		if alias == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			recv, name, _ := selCall(n)
			if recv == nil || (name != "Parse" && name != "MustParse") {
				return true
			}
			if id, ok := recv.(*ast.Ident); ok && id.Name == alias {
				out = append(out, finding{
					pos: u.fset.Position(n.Pos()),
					msg: fmt.Sprintf("%s.%s in a package that imports the interpreter; use interp.Load for shared read-only ASTs (reparse only to mutate, from a package without interp)",
						alias, name),
				})
			}
			return true
		})
	}
	return out
}

// ---- fixtures ---------------------------------------------------------

// Every analyzer gets a deliberately-violating fixture (must produce
// exactly the expected findings) and a clean twin (must produce none),
// so a contract that silently stops firing fails the tests.

func analyzeFixture(t *testing.T, importPath string, srcs ...string) []finding {
	t.Helper()
	u := &unit{fset: token.NewFileSet(), importPath: importPath}
	for i, src := range srcs {
		f, err := parser.ParseFile(u.fset, "fixture.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("fixture %d does not parse: %v", i, err)
		}
		u.files = append(u.files, f)
	}
	return analyzeUnit(u)
}

func wantFindings(t *testing.T, got []finding, analyzer string, n int, msgFrag string) {
	t.Helper()
	count := 0
	for _, f := range got {
		if f.analyzer != analyzer {
			t.Errorf("unexpected %s finding: %s", f.analyzer, f.msg)
			continue
		}
		count++
		if msgFrag != "" && !strings.Contains(f.msg, msgFrag) {
			t.Errorf("finding %q does not mention %q", f.msg, msgFrag)
		}
	}
	if count != n {
		t.Errorf("got %d %s findings, want %d (all: %v)", count, analyzer, n, got)
	}
}

const lockSubmitBad = `package p

import (
	"sync"

	"repro/internal/sched"
)

type svc struct {
	mu sync.Mutex
	q  *sched.Queue
}

func (s *svc) enqueueHeld(fn sched.Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.Submit(fn) // BAD: admission under s.mu
}

func (s *svc) enqueueHeldWith(fn sched.Job) {
	s.mu.Lock()
	s.q.SubmitWith(fn, sched.SubmitOptions{}) // BAD: explicit unlock comes after
	s.mu.Unlock()
}
`

const lockSubmitGood = `package p

import (
	"sync"

	"repro/internal/sched"
)

type svc struct {
	mu sync.Mutex
	q  *sched.Queue
}

func (s *svc) enqueue(fn sched.Job) error {
	s.mu.Lock()
	n := s.tally()
	s.mu.Unlock()
	_ = n
	return s.q.Submit(fn) // fine: lock released first
}

func (s *svc) deferredBody(fn sched.Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tallyErr() // fine: no admission under the lock
}

func (s *svc) closureLater(fn sched.Job) func() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// fine: the literal runs after this function returns and released.
	return func() error { return s.q.Submit(fn) }
}

func (s *svc) tally() int       { return 0 }
func (s *svc) tallyErr() error  { return nil }
`

func TestLockSubmit(t *testing.T) {
	wantFindings(t, analyzeFixture(t, "repro/internal/fixture", lockSubmitBad),
		"locksubmit", 2, "is held")
	wantFindings(t, analyzeFixture(t, "repro/internal/fixture", lockSubmitGood),
		"locksubmit", 0, "")
}

const jobSubmitBad = `package p

import "repro/internal/sched"

func root(q *sched.Queue) {
	q.Submit(func(w *sched.WorkerCtx) {
		q.Submit(func(w2 *sched.WorkerCtx) {}) // BAD: admission from inside a job
	})
}

func job(w *sched.WorkerCtx, q *sched.Queue) {
	go func() {
		q.SubmitWith(nil, sched.SubmitOptions{}) // BAD: still lexically inside the job
	}()
}
`

const jobSubmitGood = `package p

import "repro/internal/sched"

func root(q *sched.Queue) error {
	return q.Submit(func(w *sched.WorkerCtx) { // fine: admission from outside any job
		step(w.Worker) // fine: the job does its follow-on work inline
	})
}

func step(int) {}
`

func TestJobSubmit(t *testing.T) {
	wantFindings(t, analyzeFixture(t, "repro/internal/fixture", jobSubmitBad),
		"jobsubmit", 2, "deadlock the pool")
	wantFindings(t, analyzeFixture(t, "repro/internal/fixture", jobSubmitGood),
		"jobsubmit", 0, "")
}

const loadSharedBad = `package p

import (
	jsparser "repro/internal/js/parser"
	"repro/internal/js/interp"
)

func load(src string) error {
	prog, err := jsparser.Parse(src) // BAD: executing package must use interp.Load
	if err != nil {
		return err
	}
	return interp.New().Run(prog)
}

func mustLoad(src string) {
	interp.New().Run(jsparser.MustParse(src)) // BAD: same through MustParse
}
`

const loadSharedGoodLoad = `package p

import "repro/internal/js/interp"

func load(src string) error {
	prog, err := interp.Load(src) // fine: the shared-AST cache
	if err != nil {
		return err
	}
	return interp.New().Run(prog)
}
`

const loadSharedGoodMutator = `package p

import (
	"repro/internal/js/ast"
	"repro/internal/js/parser"
)

func rewrite(src string) (*ast.Program, error) {
	return parser.Parse(src) // fine: no interp import, private mutable tree
}
`

func TestLoadShared(t *testing.T) {
	wantFindings(t, analyzeFixture(t, "repro/internal/fixture", loadSharedBad),
		"loadshared", 2, "interp.Load")
	wantFindings(t, analyzeFixture(t, "repro/internal/fixture", loadSharedGoodLoad),
		"loadshared", 0, "")
	wantFindings(t, analyzeFixture(t, "repro/internal/fixture", loadSharedGoodMutator),
		"loadshared", 0, "")
	// The interpreter itself implements Load: its own parser.Parse call
	// is the one legitimate site.
	wantFindings(t, analyzeFixture(t, "repro/internal/js/interp", loadSharedBad),
		"loadshared", 0, "")
}
