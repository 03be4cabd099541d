package repro

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// lintedDocs are the documents that name benchmarks, tests and
// commands as the holders of their claims.
var lintedDocs = []string{
	"DESIGN.md",
	"EXPERIMENTS.md",
	"README.md",
	"docs/OPERATIONS.md",
	".claude/skills/verify/SKILL.md",
}

var (
	docFuncName  = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz|Example)[A-Z0-9]\w*`)
	docCmdName   = regexp.MustCompile(`\bcmd/[a-z][a-z0-9-]*`)
	docPkgPath   = regexp.MustCompile(`\binternal(?:/[\w-]+)+(?:\.go\b)?`)
	goFuncDecl   = regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?((?:Benchmark|Test|Fuzz|Example)\w*)\(`)
	cmdFlagDef   = regexp.MustCompile(`\b\w+\.(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)\("([^"]+)"`)
	opsFlagRow   = regexp.MustCompile("(?m)^\\| `-([^`]+)` \\|")
	changesEntry = regexp.MustCompile(`^(?:- )?PR (\d+)\b`)
)

// treeGoFiles returns every .go file of the tree, the root module and
// bench/, skipping dot-directories (version control, build output) and
// testdata.
func treeGoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// declaredFuncs collects every Benchmark*/Test*/Fuzz*/Example* function
// declared in a .go file of the tree.
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	for _, path := range treeGoFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goFuncDecl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
	}
	return funcs
}

// staleNames returns the Benchmark*/Test*/Fuzz*/Example* identifiers in
// text that no .go file declares, the cmd/<name> paths that are not
// directories and the internal/<path> paths that are neither a
// directory nor a .go file. A shorthand (BenchmarkFoo*,
// BenchmarkFoo{A,B}) reads as its prefix, which is no function: write
// the names out.
func staleNames(text string, funcs map[string]bool) []string {
	var stale []string
	seen := map[string]bool{}
	note := func(name string, live bool) {
		if !live && !seen[name] {
			seen[name] = true
			stale = append(stale, name)
		}
	}
	for _, name := range docFuncName.FindAllString(text, -1) {
		note(name, funcs[name])
	}
	for _, dir := range docCmdName.FindAllString(text, -1) {
		st, err := os.Stat(dir)
		note(dir, err == nil && st.IsDir())
	}
	for _, path := range docPkgPath.FindAllString(text, -1) {
		st, err := os.Stat(path)
		note(path, err == nil && (st.IsDir() || strings.HasSuffix(path, ".go")))
	}
	return stale
}

// TestDocsNameLiveCode fails when a document cites a benchmark, test,
// fuzz target, example, command or package path that no longer exists: a
// claim whose holder was deleted or renamed has to move with it.
func TestDocsNameLiveCode(t *testing.T) {
	funcs := declaredFuncs(t)

	// The lint must be able to fail: names nothing declares (a
	// benchmark and an example), a shorthand, a command and a package
	// that are not there.
	probe := "`BenchmarkNoSuchLadder8Workers`, `TestDocsNameLive*`, cmd/nosuchcmd, `ExampleNoSuchType`, internal/nosuchpkg/sub; `TestDocsNameLiveCode`, `ExampleDepAnalyzer`, cmd/ceresproxy, internal/leakcheck, internal/proxy/cache.go and internal/js/... are fine"
	if got := staleNames(probe, funcs); len(got) != 5 {
		t.Fatalf("probe: stale = %q, want the five dead names", got)
	}

	for _, doc := range lintedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		for _, name := range staleNames(string(text), funcs) {
			t.Errorf("%s names %s, which does not exist in the tree", doc, name)
		}
	}
}

// addFlagDefs adds the name of every flag src defines, on the flag
// package or on a FlagSet, to flags.
func addFlagDefs(flags map[string]bool, src []byte) {
	for _, m := range cmdFlagDef.FindAllSubmatch(src, -1) {
		flags[string(m[1])] = true
	}
}

// cmdFlags collects every flag name a cmd/*/main.go defines.
func cmdFlags(t *testing.T) map[string]bool {
	t.Helper()
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	flags := map[string]bool{}
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		addFlagDefs(flags, src)
	}
	return flags
}

// flagDocProblems checks the operations manual against the defined
// flags in both directions: every flag appears as -name, every flag row
// of its tables names a defined flag, and every vet analyzer is named.
func flagDocProblems(ops string, flags map[string]bool) []string {
	var problems []string
	for _, name := range slices.Sorted(maps.Keys(flags)) {
		mention := regexp.MustCompile(`(?:^|[^\w-])-` + regexp.QuoteMeta(name) + `(?:$|[^\w-])`)
		if !mention.MatchString(ops) {
			problems = append(problems, "flag -"+name+" is not documented")
		}
	}
	for _, m := range opsFlagRow.FindAllStringSubmatch(ops, -1) {
		if !flags[m[1]] {
			problems = append(problems, "row -"+m[1]+" names a flag no cmd/*/main.go defines")
		}
	}
	for _, a := range contractAnalyzers {
		if !strings.Contains(ops, a.name) {
			problems = append(problems, "analyzer "+a.name+" is not documented")
		}
	}
	return problems
}

// TestOperationsDocsFlags fails when docs/OPERATIONS.md and the
// commands' flags disagree: a flag nobody can look up, or a documented
// flag that no longer exists.
func TestOperationsDocsFlags(t *testing.T) {
	// The lint must be able to fail in each direction, and must see a
	// flag defined on a FlagSet as well as one on the flag package.
	probeFlags := map[string]bool{}
	addFlagDefs(probeFlags, []byte(`fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	a := flag.Int("kept", 1, "")
	b := fs.String("kept-too", "", "")
	c := fs.Bool("missing", false, "")
	return fmt.Errorf("unknown -x=%s", *b)`))
	if want := []string{"kept", "kept-too", "missing"}; !slices.Equal(slices.Sorted(maps.Keys(probeFlags)), want) {
		t.Fatalf("probe: flags = %v, want %v", slices.Sorted(maps.Keys(probeFlags)), want)
	}
	probe := "| `-gone` | x |\n-kept, -kept-too and"
	for _, a := range contractAnalyzers[1:] {
		probe += " " + a.name
	}
	got := flagDocProblems(probe, probeFlags)
	if len(got) != 3 {
		t.Fatalf("probe: problems = %q, want -missing, -gone and %s", got, contractAnalyzers[0].name)
	}

	ops, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flagDocProblems(string(ops), cmdFlags(t)) {
		t.Errorf("docs/OPERATIONS.md: %s", p)
	}
}

// unformatted reports whether src differs from its gofmt form.
func unformatted(src []byte) bool {
	out, err := format.Source(src)
	return err != nil || !bytes.Equal(out, src)
}

// TestGofmt fails when a .go file of the tree is not gofmt-formatted.
func TestGofmt(t *testing.T) {
	// The lint must be able to fail.
	if !unformatted([]byte("package p\nfunc  f() {}\n")) || unformatted([]byte("package p\n\nfunc f() {}\n")) {
		t.Fatal("probe: the misformatted source passed or the formatted one failed")
	}

	for _, path := range treeGoFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if unformatted(src) {
			t.Errorf("%s is not gofmt-formatted", path)
		}
	}
}

// hasPackageDoc reports whether a file of u carries a doc comment on its
// package clause starting "Package <name>" or "Command ".
func hasPackageDoc(u *unit) bool {
	name := u.files[0].Name.Name
	want := regexp.MustCompile(`^(?:Package ` + regexp.QuoteMeta(name) + `\b|Command )`)
	for _, f := range u.files {
		if f.Doc != nil && want.MatchString(f.Doc.Text()) {
			return true
		}
	}
	return false
}

// TestPackageDocs fails when a package of the tree has no package doc
// comment.
func TestPackageDocs(t *testing.T) {
	// The lint must be able to fail: no doc, a doc on another name, and
	// a comment not attached to the package clause.
	for src, want := range map[string]bool{
		"package p\n":                                   false,
		"// Package pq does x.\npackage p\n":            false,
		"// Package p does x.\n\npackage p\n":           false,
		"// Package p does x.\npackage p\n":             true,
		"// Command p does x.\npackage main\n":          true,
		"// Package main is a command.\npackage main\n": true,
	} {
		u := &unit{fset: token.NewFileSet()}
		f, err := parser.ParseFile(u.fset, "probe.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		u.files = append(u.files, f)
		if got := hasPackageDoc(u); got != want {
			t.Fatalf("probe %q: hasPackageDoc = %v, want %v", src, got, want)
		}
	}

	for _, u := range treeUnits(t) {
		if !hasPackageDoc(u) {
			t.Errorf("%s: package %s has no doc comment starting \"Package %[2]s\" or \"Command \"", u.dir, u.files[0].Name.Name)
		}
	}
}

// CHANGES.md holds one sentence plus a pointer per entry; the detail
// lives in the commit message. Entries are numbered; the cap binds from
// changesCapFromEntry on, and the entries before it predate the cap.
const (
	changesCapFromEntry = 36
	changesEntryBytes   = 400
)

// longChanges returns the numbers of entries at or after
// changesCapFromEntry that exceed changesEntryBytes. An entry is a line
// starting "PR <n>" (or "- PR <n>") plus any continuation lines after it.
func longChanges(text string) []int {
	var long []int
	num, size := -1, 0
	flush := func() {
		if num >= changesCapFromEntry && size > changesEntryBytes {
			long = append(long, num)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if m := changesEntry.FindStringSubmatch(line); m != nil {
			flush()
			num, _ = strconv.Atoi(m[1])
			size = len(line)
			continue
		}
		if num >= 0 && strings.TrimSpace(line) != "" {
			size += 1 + len(line)
		}
	}
	flush()
	return long
}

// TestChangesEntriesShort fails when a CHANGES.md entry numbered
// changesCapFromEntry or later is over the byte cap.
func TestChangesEntriesShort(t *testing.T) {
	// The lint must be able to fail: an over-long entry before the cap
	// passes, a short one passes, and one whose continuation line takes
	// it over the cap fails.
	first := changesCapFromEntry
	probe := fmt.Sprintf("- PR %d (x): %s\n- PR %d (x): short\nPR %d: %s\n%s\n",
		first-1, strings.Repeat("a", 500), first, first+1, strings.Repeat("b", 300), strings.Repeat("c", 200))
	if got := longChanges(probe); !slices.Equal(got, []int{first + 1}) {
		t.Fatalf("probe: long = %v, want only %d", got, first+1)
	}

	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range longChanges(string(text)) {
		t.Errorf("CHANGES.md: entry %d is over %d bytes; keep one sentence plus a pointer", num, changesEntryBytes)
	}
}

// docCeilings caps the two long documents at a byte size. A change
// that shrinks one lowers its ceiling to the new size; one that must
// add text cuts as much elsewhere first.
var docCeilings = map[string]int64{
	"DESIGN.md":      69327,
	"EXPERIMENTS.md": 99579,
}

// oversizeDocs returns, sorted, the documents whose size is over their
// ceiling.
func oversizeDocs(sizes, ceilings map[string]int64) []string {
	var over []string
	for name, ceiling := range ceilings {
		if sizes[name] > ceiling {
			over = append(over, name)
		}
	}
	slices.Sort(over)
	return over
}

// TestDocSizeCeilings fails when DESIGN.md or EXPERIMENTS.md grows past
// its ceiling in docCeilings.
func TestDocSizeCeilings(t *testing.T) {
	// The lint must be able to fail: one byte over fails, at the
	// ceiling and under it pass.
	probe := oversizeDocs(map[string]int64{"a.md": 11, "b.md": 10, "c.md": 3},
		map[string]int64{"a.md": 10, "b.md": 10, "c.md": 10})
	if !slices.Equal(probe, []string{"a.md"}) {
		t.Fatalf("probe: over = %q, want only a.md", probe)
	}

	sizes := map[string]int64{}
	for name, ceiling := range docCeilings {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = fi.Size()
		if fi.Size() < ceiling {
			t.Logf("%s: %d bytes, %d under its ceiling; lower the ceiling to match", name, fi.Size(), ceiling-fi.Size())
		}
	}
	for _, name := range oversizeDocs(sizes, docCeilings) {
		t.Errorf("%s: %d bytes, over its ceiling of %d; cut as much as you add", name, sizes[name], docCeilings[name])
	}
}
