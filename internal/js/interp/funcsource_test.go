package interp_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
	"repro/internal/workloads"
)

// TestFuncSourceRoundTrip holds FuncLit.Source, the text autopar ships
// to its workers, to the tree it came from. For every function literal
// in the conformance corpus, the ExecKernels and the image pipeline, the
// text runs from `function` through `}`, and `var __f = <text>;` parses
// to one literal with the original's tree (loop IDs renumbered: they
// count from 1 in each parse) and the same text again.
func TestFuncSourceRoundTrip(t *testing.T) {
	progs := []program{
		{"declaration", "function add(a, b) { return a + b; }\nadd(1, 2);"},
		{"named expression", "var g = function fact(n) { return n < 2 ? 1 : n * fact(n - 1); };"},
		{"nested", "function outer(x) {\n  var inner = function (y) { return function (z) { return x + y + z; }; };\n  return inner(1)(2);\n}"},
		{"comment before brace", "function f(x) {\n  if (x) return x; else return -x; // the last word\n}\nf(1);"},
		{"last token", "var h = function (x) { for (var i = 0; i < x; i++) if (i > 3) break; return x; }"},
	}
	for _, tc := range interp.ConformancePrograms() {
		progs = append(progs, program{"conformance/" + tc[0], tc[1]})
	}
	for _, ek := range workloads.ExecKernels() {
		progs = append(progs,
			program{"exec/" + ek.Loop + "/prelude", ek.Prelude},
			program{"exec/" + ek.Loop + "/elemental", "var __e = " + ek.Elemental})
	}
	pk := workloads.ImagePipe()
	progs = append(progs, program{"pipe/prelude", pk.Prelude})
	for _, st := range pk.Stages {
		progs = append(progs, program{"pipe/" + st.Name, "var __e = " + st.Elemental})
	}

	lits := 0
	for _, tc := range progs {
		prog, err := parser.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ast.Inspect(&ast.BlockStmt{Body: prog.Body}, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			lits++
			src := lit.Source()
			if !strings.HasPrefix(src, "function") || !strings.HasSuffix(src, "}") {
				t.Errorf("%s: literal at %s has text %q", tc.name, lit.Pos(), src)
				return true
			}
			again, err := parser.Parse("var __f = " + src + ";")
			if err != nil {
				t.Errorf("%s: literal at %s does not parse on its own: %v\n%s", tc.name, lit.Pos(), err, src)
				return true
			}
			decl, ok := again.Body[0].(*ast.VarDecl)
			if len(again.Body) != 1 || !ok || len(decl.Inits) != 1 {
				t.Errorf("%s: literal at %s parses to more than one declaration", tc.name, lit.Pos())
				return true
			}
			got, ok := decl.Inits[0].(*ast.FuncLit)
			if !ok {
				t.Errorf("%s: literal at %s parses to %s", tc.name, lit.Pos(), ast.Dump(decl.Inits[0]))
				return true
			}
			if a, b := renumberLoops(ast.Dump(lit)), renumberLoops(ast.Dump(got)); a != b {
				t.Errorf("%s: literal at %s re-parses to a different tree:\n%s\n%s", tc.name, lit.Pos(), a, b)
			}
			if got.Source() != src {
				t.Errorf("%s: literal at %s re-parses with text %q, want %q", tc.name, lit.Pos(), got.Source(), src)
			}
			return true
		})
	}
	if lits < 100 {
		t.Fatalf("only %d function literals checked", lits)
	}
}

var loopIDs = regexp.MustCompile(`#\d+`)

// renumberLoops rewrites the loop IDs in an ast.Dump in order of first
// appearance, so two dumps of one tree compare equal whatever the IDs
// their parses handed out.
func renumberLoops(dump string) string {
	ids := map[string]string{}
	return loopIDs.ReplaceAllStringFunc(dump, func(id string) string {
		if _, ok := ids[id]; !ok {
			ids[id] = "#" + strconv.Itoa(len(ids)+1)
		}
		return ids[id]
	})
}
