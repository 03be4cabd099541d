package parser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/js/ast"
)

func dump(t *testing.T, src string) string {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return ast.DumpProgram(prog)
}

func wantDump(t *testing.T, src, want string) {
	t.Helper()
	if got := dump(t, src); got != want {
		t.Errorf("parse %q\n got: %s\nwant: %s", src, got, want)
	}
}

func TestPrecedence(t *testing.T) {
	wantDump(t, "x = 1 + 2 * 3;", "(expr (= x (+ 1 (* 2 3))))")
	wantDump(t, "x = (1 + 2) * 3;", "(expr (= x (* (+ 1 2) 3)))")
	wantDump(t, "x = 1 < 2 == true;", "(expr (= x (== (< 1 2) true)))")
	wantDump(t, "x = a && b || c;", "(expr (= x (|| (&& a b) c)))")
	wantDump(t, "x = a | b ^ c & d;", "(expr (= x (| a (^ b (& c d)))))")
	wantDump(t, "x = 1 << 2 + 3;", "(expr (= x (<< 1 (+ 2 3))))")
	wantDump(t, "x = -a * b;", "(expr (= x (* (- a) b)))")
	wantDump(t, "x = !a === b;", "(expr (= x (=== (! a) b)))")
	wantDump(t, "x = a = b = c;", "(expr (= x (= a (= b c))))") // right assoc
	wantDump(t, "x = a ? b : c ? d : e;", "(expr (= x (?: a b (?: c d e))))")
}

func TestMemberCallChains(t *testing.T) {
	wantDump(t, "a.b.c;", "(expr (. (. a b) c))")
	wantDump(t, "a[0][1];", "(expr ([] ([] a 0) 1))")
	wantDump(t, "a.b(1).c[2];", "(expr ([] (. (call (. a b) 1) c) 2))")
	wantDump(t, "f()();", "(expr (call (call f)))")
	wantDump(t, "new F().m();", "(expr (call (. (new F) m)))")
	wantDump(t, "new a.b.C(1);", "(expr (new (. (. a b) C) 1))")
	wantDump(t, "new F;", "(expr (new F))")
}

func TestKeywordPropertyNames(t *testing.T) {
	wantDump(t, "a.new;", "(expr (. a new))")
	wantDump(t, "a.delete;", "(expr (. a delete))")
	wantDump(t, "x = {for: 1, if: 2};", "(expr (= x (object for:1 if:2)))")
}

func TestLoopsGetIDs(t *testing.T) {
	prog := MustParse(`
for (var i = 0; i < 3; i++) {}
while (x) {}
do {} while (y);
for (var k in o) {}
`)
	if len(prog.Loops) != 4 {
		t.Fatalf("loops = %d, want 4", len(prog.Loops))
	}
	kinds := []string{"for", "while", "do-while", "for-in"}
	for i, li := range prog.Loops {
		if li.Kind != kinds[i] {
			t.Errorf("loop %d kind = %s, want %s", i, li.Kind, kinds[i])
		}
		if li.ID != ast.LoopID(i+1) {
			t.Errorf("loop %d ID = %d", i, li.ID)
		}
		if li.Line == 0 {
			t.Errorf("loop %d has no line", i)
		}
	}
	if got := prog.Loops[0].Label(); got != "for(line 2)" {
		t.Errorf("label = %q", got)
	}
}

// TestLoopOffsets: every loop records the source ranges of its statement
// and of its body — the statement's own `;` inside, comments and the next
// statement outside — and the program keeps the text they index.
func TestLoopOffsets(t *testing.T) {
	src := `for(;;)for(var k in o)x; // c
while (a) /* b */ { y(); } z();
do q++; while (q<3)
foo(function(){ for (i=0;i<2;i++) w() });
do {} while (r); ;`
	prog := MustParse(src)
	if prog.Source != src {
		t.Fatal("Program.Source is not the parsed text")
	}
	want := []struct{ stmt, body string }{
		{"for(;;)for(var k in o)x;", "for(var k in o)x;"},
		{"for(var k in o)x;", "x;"},
		{"while (a) /* b */ { y(); }", "{ y(); }"},
		{"do q++; while (q<3)", "q++;"},
		{"for (i=0;i<2;i++) w()", "w()"},
		{"do {} while (r);", "{}"},
	}
	if len(prog.Loops) != len(want) {
		t.Fatalf("loops = %d, want %d", len(prog.Loops), len(want))
	}
	for i, li := range prog.Loops {
		if got := src[li.Start:li.End]; got != want[i].stmt {
			t.Errorf("loop %d statement = %q, want %q", i+1, got, want[i].stmt)
		}
		if got := src[li.BodyStart:li.BodyEnd]; got != want[i].body {
			t.Errorf("loop %d body = %q, want %q", i+1, got, want[i].body)
		}
	}
}

func TestBranchIDsAssigned(t *testing.T) {
	prog := MustParse(`if (a) {} var x = a ? 1 : 2; var y = a && b; var z = a || b;`)
	seen := map[int]bool{}
	count := 0
	ast.InspectProgram(prog, func(n ast.Node) bool {
		var id int
		switch x := n.(type) {
		case *ast.IfStmt:
			id = x.BranchID
		case *ast.CondExpr:
			id = x.BranchID
		case *ast.BinaryExpr:
			if x.BranchID == 0 {
				return true
			}
			id = x.BranchID
		default:
			return true
		}
		if id == 0 {
			t.Errorf("%T has no branch ID", n)
		}
		if seen[id] {
			t.Errorf("duplicate branch ID %d", id)
		}
		seen[id] = true
		count++
		return true
	})
	if count != 4 {
		t.Errorf("found %d branching constructs, want 4", count)
	}
}

func TestForVariants(t *testing.T) {
	wantDump(t, "for (;;) {}", "(for#1 _ _ _ (block))")
	wantDump(t, "for (i = 0; ; i++) {}", "(for#1 (expr (= i 0)) _ (post++ i) (block))")
	wantDump(t, "for (var i = 0, j = 1; i < j; i++, j--) {}",
		"(for#1 (var i=0 j=1) (< i j) (seq (post++ i) (post-- j)) (block))")
	wantDump(t, "for (k in o) {}", "(forin#1 k o (block))")
}

func TestFunctionForms(t *testing.T) {
	wantDump(t, "function f() {}", "(funcdecl f (func f [] (block)))")
	wantDump(t, "var g = function (a, b) { return a; };",
		"(var g=(func [a b] (block (return a))))")
	wantDump(t, "var h = function named() {};", "(var h=(func named [] (block)))")
	wantDump(t, "(function () {})();", "(expr (call (func [] (block))))")
}

func TestVarHoistingMetadata(t *testing.T) {
	prog := MustParse(`
function f() {
  var a = 1;
  if (x) { var b = 2; }
  for (var c = 0; c < 1; c++) { var d; }
  for (var e in o) {}
  function inner() { var notMine; }
}
`)
	fd := prog.Body[0].(*ast.FuncDecl)
	got := strings.Join(fd.Fn.VarNames, ",")
	for _, name := range []string{"a", "b", "c", "d", "e", "inner"} {
		if !strings.Contains(got, name) {
			t.Errorf("VarNames %q missing %q", got, name)
		}
	}
	if strings.Contains(got, "notMine") {
		t.Errorf("VarNames %q leaked nested function vars", got)
	}
}

func TestTopLevelVars(t *testing.T) {
	prog := MustParse(`
var a = 1;
function f() {}
if (x) { var b; }
for (var c in o) {}
`)
	got := strings.Join(TopLevelVars(prog), ",")
	for _, name := range []string{"a", "f", "b", "c"} {
		if !strings.Contains(got, name) {
			t.Errorf("TopLevelVars %q missing %q", got, name)
		}
	}
}

func TestSwitchParsing(t *testing.T) {
	wantDump(t, `switch (x) { case 1: a(); break; case 2: case 3: b(); default: c(); }`,
		"(switch x (case 1 (expr (call a)) (break)) (case 2) (case 3 (expr (call b))) (default (expr (call c))))")
}

func TestTryParsing(t *testing.T) {
	wantDump(t, "try { a(); } catch (e) { b(e); }",
		"(try (block (expr (call a))) (catch e (block (expr (call b e)))))")
	wantDump(t, "try { a(); } finally { c(); }",
		"(try (block (expr (call a))) (finally (block (expr (call c)))))")
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"var = 3;",
		"function () {}",       // declaration without a name
		"for (var i = 0; i) ;", // missing clause separator... actually valid-ish: check others
		"x = ;",
		"if (a {",
		"1 = 2;",       // invalid assignment target
		"a++ = 3;",     // invalid target
		"try { a(); }", // try without catch/finally
		`var s = "unterminated`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestErrorRecoveryDoesNotHang(t *testing.T) {
	// Deeply broken input must terminate (progress guarantee).
	_, err := Parse("}}}}{{{{ ((( var var var")
	if err == nil {
		t.Error("expected errors")
	}
}

func TestObjectLiteralKeys(t *testing.T) {
	wantDump(t, `x = {a: 1, "b-c": 2, 3: 4};`, `(expr (= x (object a:1 b-c:2 3:4)))`)
}

func TestCommaInArguments(t *testing.T) {
	// assignment expressions (not sequences) as arguments
	wantDump(t, "f(a, b, c);", "(expr (call f a b c))")
	wantDump(t, "f((a, b));", "(expr (call f (seq a b)))")
}

// nestingChains has one chain of depth n for every recursive cycle of
// the grammar.
func nestingChains(n int) map[string]string {
	return map[string]string{
		"paren":    "x=" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"bracket":  "x=" + strings.Repeat("[", n) + "1" + strings.Repeat("]", n),
		"brace":    strings.Repeat("{", n) + strings.Repeat("}", n),
		"function": strings.Repeat("x=function(){", n) + strings.Repeat("}", n),
		"not":      "x=" + strings.Repeat("!", n) + "1",
		"new":      "x=" + strings.Repeat("new ", n) + "F",
		"assign":   strings.Repeat("a=", n) + "1",
		"ternary":  "x=" + strings.Repeat("a?b:", n) + "c",
		"else-if":  strings.Repeat("if(a){}else ", n) + "{}",
		"object":   "x=" + strings.Repeat("{k:", n) + "1" + strings.Repeat("}", n),
		"call":     "x=" + strings.Repeat("f(", n) + strings.Repeat(")", n),
		"index":    "x=a" + strings.Repeat("[a", n) + strings.Repeat("]", n),
	}
}

// TestNestingBound: input nested past maxNesting is one ordinary parse
// error, not a goroutine stack overflow (which is fatal, not a panic: no
// recover could contain it).
func TestNestingBound(t *testing.T) {
	hostile := nestingChains(4 * maxNesting)
	// The size that used to take the process down.
	hostile["paren-6MB"] = "x=" + strings.Repeat("(", 3e6) + "1" + strings.Repeat(")", 3e6)
	want := fmt.Sprintf("nesting deeper than %d", maxNesting)
	for name, src := range hostile {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("%s: parsed", name)
		} else if msg := err.Error(); !strings.HasPrefix(msg, "parse 1:") || !strings.HasSuffix(msg, want) || strings.Contains(msg, "\n") {
			t.Errorf("%s: want the one error %q, got %.200q", name, want, msg)
		}
	}
	// Deeper than code people write, and still inside the bound.
	for name, src := range nestingChains(maxNesting / 10) {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s at depth %d: %v", name, maxNesting/10, err)
		}
	}
}
