package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	docFuncName = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z0-9]\w*`)
	docCmdName  = regexp.MustCompile(`\bcmd/[a-z][a-z0-9-]*`)
	goFuncDecl  = regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?((?:Benchmark|Test|Fuzz)\w*)\(`)
)

// declaredFuncs collects every Benchmark*/Test*/Fuzz* function declared
// in a .go file of the tree: the root module and bench/.
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range goFuncDecl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// staleNames returns the Benchmark*/Test*/Fuzz* identifiers in text
// that no .go file declares and the cmd/<name> paths that are not
// directories. A shorthand (BenchmarkFoo*, BenchmarkFoo{A,B}) reads as
// its prefix, which is no function: write the names out.
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
	return stale
}

// TestDocsNameLiveCode fails when a document cites a benchmark, test,
// fuzz target or command that no longer exists: a claim whose holder
// was deleted or renamed has to move with it.
func TestDocsNameLiveCode(t *testing.T) {
	funcs := declaredFuncs(t)

	// The lint must be able to fail: a name nothing declares, a
	// shorthand, and a command that is not there.
	probe := "`BenchmarkNoSuchLadder8Workers`, `TestDocsNameLive*`, cmd/nosuchcmd; `TestDocsNameLiveCode` and cmd/loadgen are fine"
	if got := staleNames(probe, funcs); len(got) != 3 {
		t.Fatalf("probe: stale = %q, want the three dead names", got)
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
