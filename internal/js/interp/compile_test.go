package interp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/token"
	"repro/internal/js/value"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// TestSetCompileIsInert holds what replaced the engine switch: New alone
// yields function values that carry compiled bodies (hoisted, declared
// in a block, and closures alike), and SetCompile — a shim the benchmark
// module still calls — changes nothing observable whichever way it is
// flipped.
func TestSetCompileIsInert(t *testing.T) {
	const src = `
function hoisted(n) { return n + 1; }
var lit = function (n) { return hoisted(n) * 2; };
if (true) { function inBlock() { return function inner() { return lit(20); }; } }
var made = inBlock();
console.log(made(), typeof hoisted);`
	run := func(flip func(*Interp)) diffResult {
		in := New(WithSeed(7))
		rec := &traceHooks{}
		in.SetHooks(rec)
		flip(in)
		var res diffResult
		if err := in.Run(mustParse(t, src)); err != nil {
			res.runErr = err.Error()
		}
		for _, name := range []string{"hoisted", "lit", "inBlock", "made"} {
			v := in.Global(name)
			if !v.IsCallable() {
				t.Fatalf("%s is not a function", name)
			}
			if cf, _ := v.Object().Fn.Compiled.(*cfunc); cf == nil {
				t.Fatalf("%s carries no compiled body", name)
			}
		}
		res.console, res.steps, res.trace = in.Console(), in.Steps(), rec.ev
		return res
	}
	base := run(func(*Interp) {})
	if base.runErr != "" || len(base.console) != 1 || base.console[0] != "42 function" {
		t.Fatalf("run: err %q, console %q", base.runErr, base.console)
	}
	for name, flip := range map[string]func(*Interp){
		"false":      func(in *Interp) { in.SetCompile(false) },
		"true":       func(in *Interp) { in.SetCompile(true) },
		"true,false": func(in *Interp) { in.SetCompile(true); in.SetCompile(false) },
	} {
		got := run(flip)
		if got.runErr != base.runErr || got.steps != base.steps ||
			strings.Join(got.console, "\n") != strings.Join(base.console, "\n") ||
			strings.Join(got.trace, "\n") != strings.Join(base.trace, "\n") {
			t.Errorf("SetCompile(%s) changed the run: steps %d vs %d, console %q vs %q, %d vs %d hook events",
				name, got.steps, base.steps, got.console, base.console, len(got.trace), len(base.trace))
		}
	}
}

func TestBuildLayoutOrder(t *testing.T) {
	prog := mustParse(t, `function f(a, b) { var x, y; function g() {} }`)
	fd := prog.Body[0].(*ast.FuncDecl)
	l := buildLayout(fd.Fn)
	// Declaration order must match invoke: this, params, arguments, vars,
	// then body-level function declarations.
	want := []string{"this", "a", "b", "arguments", "x", "y", "g"}
	if len(l.names) < len(want) {
		t.Fatalf("layout names = %v, want prefix %v", l.names, want)
	}
	for i, n := range want {
		if l.names[i] != n && !contains(l.names, n) {
			t.Fatalf("layout names = %v, missing %q at %d", l.names, n, i)
		}
	}
	for i, n := range l.names {
		if l.index[n] != i {
			t.Fatalf("index[%q] = %d, want %d", n, l.index[n], i)
		}
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func TestResolveClasses(t *testing.T) {
	prog := mustParse(t, `
function outer(p) {
  var loc;
  function inner() {
    return p + loc + glob;
  }
  return inner;
}
try { x } catch (e) { var dynref = e; }
`)
	u := unitFor(prog)
	if u.ngsite == 0 {
		t.Fatal("expected at least one global reference site")
	}
	// Recompiling the same AST returns the cached unit.
	if u2 := unitFor(prog); u2 != u {
		t.Fatal("unitFor did not cache by AST identity")
	}

	var c compiler
	c.unit = &cunit{funcs: map[*ast.FuncLit]*cfunc{}}
	c.gsite = map[string]int{}
	outerLayout := &scopeLayout{index: map[string]int{"this": 0, "p": 1, "arguments": 2, "loc": 3}, names: []string{"this", "p", "arguments", "loc"}}
	innerLayout := &scopeLayout{index: map[string]int{"this": 0, "arguments": 1}, names: []string{"this", "arguments"}}
	c.stack = []*scopeLayout{outerLayout, innerLayout}

	if r := c.resolve("this"); r.kind != refLocal || r.slot != 0 {
		t.Fatalf("this -> %+v, want local slot 0", r)
	}
	if r := c.resolve("p"); r.kind != refOuter || r.depth != 1 || r.slot != 1 {
		t.Fatalf("p -> %+v, want outer depth 1 slot 1", r)
	}
	if r := c.resolve("glob"); r.kind != refGlobal {
		t.Fatalf("glob -> %+v, want global", r)
	}
	// The same global name dedupes onto one site.
	r1, r2 := c.resolve("glob"), c.resolve("other")
	if r1.gsite != 0 || r2.gsite != 1 {
		t.Fatalf("gsite dedup broken: %d, %d", r1.gsite, r2.gsite)
	}
	c.dyn = 1
	if r := c.resolve("p"); r.kind != refDynamic {
		t.Fatalf("inside catch, p -> %+v, want dynamic", r)
	}
}

func TestFoldExprStepParity(t *testing.T) {
	// For each constant expression, the folded step count must equal the
	// steps the tree walk charges evaluating it.
	cases := []string{
		`1 + 2;`,
		`-(3 * 4);`,
		`!("a" < "b");`,
		`1 + 2 * 3 - 4 / 5 % 6;`,
		`typeof (1 + 2);`,
		`(1, 2, "three");`,
		`~(5 ^ 3) << 2;`,
		`"a" + "b" + 1 + null;`,
	}
	for _, src := range cases {
		prog := mustParse(t, src)
		es, ok := prog.Body[0].(*ast.ExprStmt)
		if !ok {
			t.Fatalf("%s: not an expression statement", src)
		}
		v, n, folded := foldExpr(es.X)
		if !folded {
			t.Fatalf("%s: did not fold", src)
		}
		in := New()
		before := in.Steps()
		got := in.evalExpr(es.X, in.Globals)
		walked := in.Steps() - before
		if walked != n {
			t.Errorf("%s: folded steps %d, tree walk charged %d", src, n, walked)
		}
		if !value.SameValue(v, got) {
			t.Errorf("%s: folded value %v, tree walk %v", src, v, got)
		}
	}
}

func TestFoldExprRefusals(t *testing.T) {
	// Nodes with observable effects must not fold.
	cases := []string{
		`a + 1;`,          // variable read
		`1 && 2;`,         // BranchTaken
		`1 || 2;`,         // BranchTaken
		`"x" in {};`,      // object consult, can throw
		`1 instanceof f;`, // can throw
		`typeof a;`,       // VarRead on bound idents
		`f();`,            // call
	}
	for _, src := range cases {
		prog := mustParse(t, src)
		es := prog.Body[0].(*ast.ExprStmt)
		if _, _, folded := foldExpr(es.X); folded {
			t.Errorf("%s: folded, must stay dynamic", src)
		}
	}
}

func TestLoadCaches(t *testing.T) {
	src := fmt.Sprintf(`var loadCacheProbe = %d;`, 424242)
	p1, err1 := Load(src)
	p2, err2 := Load(src)
	if err1 != nil || err2 != nil {
		t.Fatalf("Load: %v, %v", err1, err2)
	}
	if p1 != p2 {
		t.Fatal("Load did not dedupe identical sources")
	}
	// Negative caching: the same broken source returns the same error.
	if _, err := Load(`var = ;`); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := Load(`var = ;`); err == nil {
		t.Fatal("expected cached parse error")
	}
}

func TestLoadConcurrent(t *testing.T) {
	src := `var concurrentLoadProbe = 1 + 1;`
	const n = 16
	progs := make([]*ast.Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := Load(src)
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatal("concurrent Load returned distinct ASTs")
		}
	}
}

func TestCompiledUnitSharedAcrossInterps(t *testing.T) {
	prog := mustParse(t, `function sq(n) { return n * n; } var r = sq(12);`)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := New()
			if err := in.Run(prog); err != nil {
				t.Error(err)
				return
			}
			if got := in.Global("r"); got.ToNumber() != 144 {
				t.Errorf("r = %v, want 144", got)
			}
		}()
	}
	wg.Wait()
}

func TestCompiledGlobalCachePerInterp(t *testing.T) {
	// Two interpreters running the same unit must not leak bindings into
	// each other through the global-site cache.
	prog := mustParse(t, `counter = counter + 1;`)
	mk := func(start float64) *Interp {
		in := New()
		in.SetGlobal("counter", value.Number(start))
		return in
	}
	a, b := mk(0), mk(100)
	for i := 0; i < 3; i++ {
		if err := a.Run(prog); err != nil {
			t.Fatal(err)
		}
		if err := b.Run(prog); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Global("counter").ToNumber(); got != 3 {
		t.Fatalf("interp a counter = %v, want 3", got)
	}
	if got := b.Global("counter").ToNumber(); got != 103 {
		t.Fatalf("interp b counter = %v, want 103", got)
	}
}

func TestScopeLookupThroughSlots(t *testing.T) {
	// interp.Scope.Lookup (used by autopar's closure capture) must see
	// bindings in compiled slot frames.
	prog := mustParse(t, `
var grab;
function f(p) {
  var q = p * 2;
  grab = function () { return q; };
}
f(21);
`)
	in := New()
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	fn := in.Global("grab")
	if !fn.IsCallable() {
		t.Fatal("grab is not a function")
	}
	env, ok := fn.Object().Fn.Env.(*Scope)
	if !ok {
		t.Fatal("closure env is not a *Scope")
	}
	b := env.Lookup("q")
	if b == nil {
		t.Fatal("Lookup(q) = nil through compiled frame")
	}
	if b.V.ToNumber() != 42 {
		t.Fatalf("q = %v, want 42", b.V)
	}
	if env.Lookup("p") == nil {
		t.Fatal("Lookup(p) = nil, params must be visible")
	}
}

func TestCompiledBindingsFreshPerCall(t *testing.T) {
	// autopar's purity guards key on *Binding identity: every activation
	// must produce fresh bindings, exactly like the tree walk.
	prog := mustParse(t, `
var grabs = [];
function f() { var local = grabs.length; grabs.push(function () { return local; }); }
f(); f();
`)
	in := New()
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	g := in.Global("grabs").Object()
	e0 := g.Elems[0].Object().Fn.Env.(*Scope)
	e1 := g.Elems[1].Object().Fn.Env.(*Scope)
	b0, b1 := e0.Lookup("local"), e1.Lookup("local")
	if b0 == nil || b1 == nil {
		t.Fatal("local not visible through closure envs")
	}
	if b0 == b1 {
		t.Fatal("two activations share one binding")
	}
	if b0.V.ToNumber() != 0 || b1.V.ToNumber() != 1 {
		t.Fatalf("locals = %v, %v, want 0, 1", b0.V, b1.V)
	}
}

func TestApplyBinaryPureCoverage(t *testing.T) {
	// in/instanceof must refuse; arithmetic must apply.
	if _, ok := applyBinaryPure(token.IN, value.String("k"), value.Number(1)); ok {
		t.Fatal("IN must not be pure")
	}
	if _, ok := applyBinaryPure(token.INSTANCEOF, value.Number(1), value.Number(2)); ok {
		t.Fatal("INSTANCEOF must not be pure")
	}
	v, ok := applyBinaryPure(token.PLUS, value.Number(2), value.Number(3))
	if !ok || v.ToNumber() != 5 {
		t.Fatalf("PLUS -> %v, %v", v, ok)
	}
}

func TestCompiledStepLimitMessage(t *testing.T) {
	prog := mustParse(t, `while (true) {}`)
	for _, compiled := range []bool{false, true} {
		in := New(WithMaxSteps(1000))
		err := in.RunEngine(prog, compiled)
		if err == nil {
			t.Fatalf("compiled=%v: expected step-limit error", compiled)
		}
		want := "interp: step limit exceeded (1000)"
		if err.Error() != want {
			t.Fatalf("compiled=%v: err = %q, want %q", compiled, err.Error(), want)
		}
	}
}

// foreignExpr and foreignStmt are node kinds no evaluator knows.
type foreignExpr struct{ ast.Expr }
type foreignStmt struct{ ast.Stmt }

// TestUnknownNodesFatalAlike: a tree the parser cannot produce — a
// foreign node kind, an operator token where no unary operator goes —
// ends both evaluators with the same fatal after the same steps and
// hook events (the unary's operand is read before the fatal).
func TestUnknownNodesFatalAlike(t *testing.T) {
	num := &ast.NumberLit{Value: 1}
	cases := map[string]ast.Stmt{
		"expr":  &ast.ExprStmt{X: foreignExpr{num}},
		"stmt":  foreignStmt{&ast.EmptyStmt{}},
		"unary": &ast.ExprStmt{X: &ast.UnaryExpr{Op: token.STAR, X: &ast.Ident{Name: "Math"}}},
	}
	for name, stmt := range cases {
		var got [2]diffResult
		for i := range got {
			in := New()
			rec := &traceHooks{}
			in.SetHooks(rec)
			err := in.RunEngine(&ast.Program{Body: []ast.Stmt{&ast.EmptyStmt{}, stmt}}, i == 1)
			if err == nil {
				t.Fatalf("%s: engine %d ran an unknown node", name, i)
			}
			got[i] = diffResult{runErr: err.Error(), steps: in.Steps(), trace: rec.ev}
		}
		tw, cp := got[0], got[1]
		if !strings.HasPrefix(cp.runErr, "interp: unknown ") {
			t.Errorf("%s: error %q", name, cp.runErr)
		}
		if tw.runErr != cp.runErr || tw.steps != cp.steps || strings.Join(tw.trace, "\n") != strings.Join(cp.trace, "\n") {
			t.Errorf("%s: tree walk %q after %d steps %q, compiled %q after %d steps %q",
				name, tw.runErr, tw.steps, tw.trace, cp.runErr, cp.steps, cp.trace)
		}
	}
}

// TestUnitsDieWithTheirPrograms: a compiled unit belongs to its
// ast.Program, so a process that parses and runs programs it never sees
// again — every fuzz input is one — keeps none of them. By count: the
// live heap after 10 000 distinct programs is the live heap after 100.
func TestUnitsDieWithTheirPrograms(t *testing.T) {
	live := func(n int) uint64 {
		for i := 0; i < n; i++ {
			src := fmt.Sprintf(`function f%d(x) { return x * %d; } var r%d = f%d(2);`, i, i, i, i)
			if err := New().Run(mustParse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	few, many := live(100), live(10_000)
	const bound = 2 << 20
	if many > few+bound {
		t.Fatalf("live heap after 10000 programs is %d KiB, after 100 programs %d KiB (bound %d KiB): units outlive their programs",
			many>>10, few>>10, bound>>10)
	}
}
