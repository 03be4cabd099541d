package main

// Fixture tests: every analyzer gets a deliberately-violating fixture
// (must produce exactly the expected findings) and a clean twin (must
// produce none) — so a contract that silently stops firing fails CI.

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

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
