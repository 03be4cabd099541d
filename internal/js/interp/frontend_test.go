package interp_test

// frontend_test.go pins the lexer and parser over the largest body of
// programs the repo has: the conformance corpus (which lives in this
// package's tests, hence the file's home), the Table-1 sources, a bundle
// of them, and malformed inputs. The parser may change how it allocates
// a tree; it may not change the tree, nor the loops and errors of the
// parse that builds none.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/js/interp"
	"repro/internal/js/lexer"
	"repro/internal/js/parser"
	"repro/internal/js/token"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// malformed are inputs the front-end must keep refusing with the same
// messages at the same positions, plus a few legal ones whose positions
// are easy to get wrong (CRLF, comments, a `\`-newline inside a string).
var malformed = []string{
	"var = 3;",
	"function () {}",
	"x = ;",
	"if (a {",
	"1 = 2;",
	"a++ = 3;",
	"try { a(); }",
	`var s = "unterminated`,
	"var s = 'abc\nvar t = 2;",
	"}}}}{{{{ ((( var var var",
	"x = 1; /* never closed\nvar y = 2;",
	`var s = "bad \x4 and \u12 and \uD800 alone";`,
	"var a = 1 # 2 @ 3;",
	strings.Repeat(") ", 40),
	"var s = \"line one \\\nline two\" + x;\nfoo(",
	"a\r\nb = \r\n;\r\nc(1,\r\n",
	"0x; 1.2.3; 1e400; .5.e",
	"x = {a: 1, , b: 2, 3};",
	"var a = 1;\x00var b = ;",
	"for (var i = 0; i < 3; i++ { }",
	"switch (x) { case 1: foo( default: }",
	"do x++ while",
	"a.1; a.; new ;",
	"\xef\xbb\xbfvar x;",
	"// c\r\n/* a\r\nb */ x = 1;\r\n\ty = 'it\\'s' /* t */ + z; // end",
	"x = 'a\\\r\nb'; y",
}

type program struct{ name, src string }

func frontendCorpus() []program {
	var out []program
	for _, tc := range interp.ConformancePrograms() {
		out = append(out, program{"conformance/" + tc[0], tc[1]})
	}
	for _, wl := range workloads.AllAt(workloads.FullScale) {
		out = append(out, program{"table1/" + wl.Name, wl.Source})
	}
	out = append(out, program{"bundle/2", workloads.Bundle(2)})
	for i, src := range malformed {
		out = append(out, program{fmt.Sprintf("malformed/%02d", i), src})
	}
	return out
}

// writeTree writes every field of every node reachable from v: type
// names, scalar values, slice lengths and nil-ness — positions, branch
// IDs and hoisted names included, which ast.Dump leaves out.
func writeTree(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			io.WriteString(w, "nil ")
			return
		}
		writeTree(w, v.Elem())
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", v.Type().Name())
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue // Program's cache of its lowered form is not tree
			}
			fmt.Fprintf(w, "%s:", v.Type().Field(i).Name)
			writeTree(w, v.Field(i))
		}
		io.WriteString(w, "}")
	case reflect.Slice:
		if v.IsNil() {
			io.WriteString(w, "nil ")
			return
		}
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			writeTree(w, v.Index(i))
		}
		io.WriteString(w, "]")
	default:
		fmt.Fprintf(w, "%#v ", v.Interface())
	}
}

// TestParserGolden compares SHA-256(tree + error text) of every corpus
// program with testdata/parser_golden.json, which was generated by the
// parser as it stood before it allocated from slabs.
func TestParserGolden(t *testing.T) {
	const path = "testdata/parser_golden.json"
	got := map[string]string{}
	for _, tc := range frontendCorpus() {
		prog, err := parser.Parse(tc.src)
		h := sha256.New()
		writeTree(h, reflect.ValueOf(prog))
		if err != nil {
			io.WriteString(h, err.Error())
		}
		if _, dup := got[tc.name]; dup {
			t.Fatalf("two corpus programs are named %s", tc.name)
		}
		got[tc.name] = hex.EncodeToString(h.Sum(nil))
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("corpus has %d programs, golden %d (run with -update if the corpus changed)", len(got), len(want))
	}
	for name, g := range got {
		if w, ok := want[name]; ok && w != g {
			t.Errorf("%s: tree or errors differ from the golden", name)
		}
	}
}

// TestLoopsMatchParse holds the tree-less parse the proxy serves from to
// the tree's: parser.Loops gives Parse's Loops, offsets included, and its
// error text byte for byte, on every corpus program.
func TestLoopsMatchParse(t *testing.T) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, tc := range frontendCorpus() {
		prog, perr := parser.Parse(tc.src)
		loops, lerr := parser.Loops(tc.src)
		if errText(lerr) != errText(perr) {
			t.Errorf("%s: Loops error\n%s\nParse error\n%s", tc.name, errText(lerr), errText(perr))
		}
		if !reflect.DeepEqual(loops, prog.Loops) {
			t.Errorf("%s: Loops gives\n%+v\nParse gives\n%+v", tc.name, loops, prog.Loops)
		}
	}
}

// TestTokenPositionsMatchRecount holds every token's Pos, Off and End to
// a recount that walks the source one byte at a time.
func TestTokenPositionsMatchRecount(t *testing.T) {
	corpus := append(frontendCorpus(),
		// `1e` that turns out not to be an exponent is rescanned.
		program{"rescan", "a = 1e+x; b = 2e; c\n d = 3e-"})
	for _, tc := range corpus {
		toks, _ := lexer.ScanAll(tc.src)
		line, col, at, prevEnd := 1, 1, 0, 0
		for i, tk := range toks {
			if tk.Off < prevEnd || tk.End <= tk.Off || tk.End > len(tc.src) {
				t.Fatalf("%s: token %d %v spans [%d,%d) after offset %d", tc.name, i, tk, tk.Off, tk.End, prevEnd)
			}
			for ; at < tk.Off; at++ {
				if tc.src[at] == '\n' {
					line, col = line+1, 1
				} else {
					col++
				}
			}
			if want := (token.Pos{Line: line, Col: col}); tk.Pos != want {
				t.Fatalf("%s: token %d %v at %v, recount says %v", tc.name, i, tk, tk.Pos, want)
			}
			text := tc.src[tk.Off:tk.End]
			switch tk.Type {
			case token.STRING:
				if text[0] != '"' && text[0] != '\'' {
					t.Fatalf("%s: string token %d spans %q", tc.name, i, text)
				}
			case token.NUMBER:
				if c := text[0]; c != '.' && (c < '0' || c > '9') {
					t.Fatalf("%s: number token %d spans %q", tc.name, i, text)
				}
			case token.ILLEGAL:
				if _, n := utf8.DecodeRuneInString(text); n != len(text) {
					t.Fatalf("%s: illegal token %d spans %q, not one character", tc.name, i, text)
				}
			case token.IDENT:
				if c := text[0]; token.Lookup(text) != token.IDENT || c != '_' && c != '$' && (c|0x20 < 'a' || c|0x20 > 'z') {
					t.Fatalf("%s: identifier token %d spans %q", tc.name, i, text)
				}
			default: // a keyword, operator or punctuator is its own spelling
				if text != tk.Type.String() {
					t.Fatalf("%s: %v token %d spans %q", tc.name, tk.Type, i, text)
				}
			}
			prevEnd = tk.End
		}
	}
}
