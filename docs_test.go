package repro

import (
	"fmt"
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
	docFuncName  = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z0-9]\w*`)
	docCmdName   = regexp.MustCompile(`\bcmd/[a-z][a-z0-9-]*`)
	goFuncDecl   = regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?((?:Benchmark|Test|Fuzz)\w*)\(`)
	cmdFlagDef   = regexp.MustCompile(`\bflag\.\w+\("([^"]+)"`)
	opsFlagRow   = regexp.MustCompile("(?m)^\\| `-([^`]+)` \\|")
	changesEntry = regexp.MustCompile(`^(?:- )?PR (\d+)\b`)
)

// vetAnalyzers are the cmd/vet-contracts analyzers; an analyzer the
// operator cannot look up is a diagnostic nobody can act on.
var vetAnalyzers = []string{"locksubmit", "jobsubmit", "loadshared"}

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
	probe := "`BenchmarkNoSuchLadder8Workers`, `TestDocsNameLive*`, cmd/nosuchcmd; `TestDocsNameLiveCode` and cmd/ceresproxy are fine"
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
		for _, m := range cmdFlagDef.FindAllSubmatch(src, -1) {
			flags[string(m[1])] = true
		}
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
	for _, a := range vetAnalyzers {
		if !strings.Contains(ops, a) {
			problems = append(problems, "analyzer "+a+" is not documented")
		}
	}
	return problems
}

// TestOperationsDocsFlags fails when docs/OPERATIONS.md and the
// commands' flags disagree: a flag nobody can look up, or a documented
// flag that no longer exists.
func TestOperationsDocsFlags(t *testing.T) {
	// The lint must be able to fail in each direction.
	probe := "| `-gone` | x |\n-kept, -kept-too and " + strings.Join(vetAnalyzers[1:], " ")
	got := flagDocProblems(probe, map[string]bool{"kept": true, "kept-too": true, "missing": true})
	if len(got) != 3 {
		t.Fatalf("probe: problems = %q, want -missing, -gone and %s", got, vetAnalyzers[0])
	}

	ops, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flagDocProblems(string(ops), cmdFlags(t)) {
		t.Errorf("docs/OPERATIONS.md: %s", p)
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
