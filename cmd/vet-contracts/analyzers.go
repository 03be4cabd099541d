package main

// The three contract analyzers. All are lexical (pure go/ast, no type
// information — the repo is stdlib-only), so they over-approximate by
// name: any `.Lock()` is a mutex acquire, any `.Submit(`/`.SubmitWith(`
// is queue admission. That trade is deliberate: the contracts are about
// call shapes, a false negative costs a runtime deadlock, and the few
// names involved are not used for anything else in this repo.

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strconv"
	"strings"
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

// unit is one package as handed over by the vet protocol.
type unit struct {
	fset       *token.FileSet
	importPath string
	files      []*ast.File
}

func analyzeUnit(u *unit) []finding {
	var out []finding
	out = append(out, lockSubmit(u)...)
	out = append(out, jobSubmit(u)...)
	out = append(out, loadShared(u)...)
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
						pos:      u.fset.Position(x.Pos()),
						analyzer: "locksubmit",
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
						pos:      u.fset.Position(x.Pos()),
						analyzer: "jobsubmit",
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
					pos:      u.fset.Position(n.Pos()),
					analyzer: "loadshared",
					msg: fmt.Sprintf("%s.%s in a package that imports the interpreter; use interp.Load for shared read-only ASTs (reparse only to mutate, from a package without interp)",
						alias, name),
				})
			}
			return true
		})
	}
	return out
}
