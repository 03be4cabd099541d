// Package effects is the static purity prover: a flow-insensitive,
// conservative effect analysis over the JS subset AST that classifies a
// kernel function — the elemental of a ParallelArray operation — before
// it ever runs. Where internal/autopar's runtime Guard *observes* writes
// under speculation (paying a hook on every interpreter write, on every
// profiled element and every worker), the prover inspects the function
// body plus its interpreted callees once and returns one of three
// verdicts:
//
//   - Proven: every write lands on a kernel-local variable or a fresh
//     allocation the kernel itself made; every call resolves to an
//     interpreted function that is itself proven (or a whitelisted pure
//     ambient builtin); no nondeterministic native (Math.random, the
//     Date/performance virtual clock, console) is reachable; no dynamic
//     scope escape (`this`, computed callees). A Proven kernel may
//     dispatch with no Guard and no profile slice — the §5.3 abort
//     machinery stays for serialization limits only.
//   - Refuted: the body provably writes captured or global state, or
//     provably calls a nondeterministic native. Dispatch is refused
//     before any speculative work is spent.
//   - Unknown: something the conservative analysis cannot decide —
//     computed member writes on unproven bases, unresolvable callees,
//     aliased captures, `this`. Unknown kernels keep today's
//     speculate-then-verify path: profile under Guard, guarded workers,
//     sequential fallback.
//
// Every non-Proven verdict carries a machine-readable reason chain
// (Reason.Code plus a §5.3-style human detail), mirroring the abort
// reasons the runtime engine reports, so the study can put the static
// column next to the dynamic one and disagreements are inspectable.
package effects

import (
	"fmt"

	"repro/internal/js/ast"
	"repro/internal/js/token"
)

// Verdict is the three-point lattice of the prover. The zero value is
// Unknown: absent analysis never claims anything.
type Verdict int

const (
	// Unknown means the conservative analysis could not decide; the
	// kernel must stay on the speculative (guarded) path.
	Unknown Verdict = iota
	// Proven means every effect is local: dispatch may elide the Guard
	// and the profile slice entirely.
	Proven
	// Refuted means the kernel provably violates purity: dispatch is
	// refused before any speculative work is spent.
	Refuted
)

func (v Verdict) String() string {
	switch v {
	case Proven:
		return "proven"
	case Refuted:
		return "refuted"
	}
	return "unknown"
}

// Reason is one machine-readable entry of a verdict's reason chain.
type Reason struct {
	// Code is a stable machine-readable identifier (e.g.
	// "writes-free-var", "nondet-native", "unresolved-callee").
	Code string `json:"code"`
	// Detail is the §5.3-style human-readable explanation naming the
	// variable, property or callee.
	Detail string `json:"detail"`
	// Line is the 1-based source line of the offending node (0 when
	// the reason has no single node).
	Line int `json:"line"`
	// Refutes is true when this reason alone forces Refuted (a proven
	// impurity) rather than merely Unknown (an undecidable shape).
	Refutes bool `json:"refutes"`
}

// Report is the prover's result for one kernel.
type Report struct {
	Verdict Verdict  `json:"verdict"`
	Reasons []Reason `json:"reasons,omitempty"`
}

// First returns the first reason's detail ("" for a Proven report) —
// the headline the study tables print.
func (r Report) First() string {
	if len(r.Reasons) == 0 {
		return ""
	}
	return r.Reasons[0].Detail
}

// CalleeKind classifies what a free name resolves to in the kernel's
// defining environment.
type CalleeKind int

const (
	// CalleeUnknown: the resolver cannot say (unbound, native closure,
	// or no resolver at all). Calling it leaves the verdict Unknown.
	CalleeUnknown CalleeKind = iota
	// CalleeAmbient: the name still means the untouched builtin global
	// (Math, parseInt, ...). The prover's ambient whitelists apply.
	CalleeAmbient
	// CalleeFunc: an interpreted function with an inspectable body.
	CalleeFunc
	// CalleeData: plain data (primitive, array, object) — reading it is
	// pure, calling it is not analyzable.
	CalleeData
)

// Callee is a resolver's answer for one free name.
type Callee struct {
	Kind CalleeKind
	// Fn is the function literal for CalleeFunc.
	Fn *ast.FuncLit
	// Resolve, when non-nil, resolves Fn's own free names (its closure
	// environment differs from the kernel's); nil means "same resolver".
	Resolve Resolver
}

// Resolver maps a free name to what it denotes. A nil Resolver resolves
// ambient builtins and nothing else.
type Resolver func(name string) Callee

// Ambient lists the globals every fresh interpreter installs — shared
// with internal/autopar's capture plan so the static and dynamic
// machinery agree on what "ambient" means.
var Ambient = map[string]bool{
	"Math": true, "console": true, "performance": true, "Date": true,
	"parseInt": true, "parseFloat": true, "isNaN": true, "isFinite": true,
	"NaN": true, "Infinity": true, "undefined": true,
	"Array": true, "Object": true, "String": true, "Number": true,
	"Boolean": true, "Error": true,
}

// ambientPureCall lists the ambient names that are pure when called as
// plain functions (deterministic coercions and fresh allocations).
var ambientPureCall = map[string]bool{
	"parseInt": true, "parseFloat": true, "isNaN": true, "isFinite": true,
	"String": true, "Number": true, "Boolean": true, "Array": true,
}

// maxCalleeDepth bounds the transitive-callee recursion, mirroring the
// capture plan's maxCaptureDepth.
const maxCalleeDepth = 8

// AnalyzeFunc proves, refutes, or gives up on one kernel function.
// resolve supplies the kernel's defining environment (nil = ambient
// builtins only, everything else Unknown).
func AnalyzeFunc(fn *ast.FuncLit, resolve Resolver) Report {
	a := &analysis{visited: map[*ast.FuncLit]bool{}}
	a.analyzeFunc(fn, resolve, 0)
	return a.report()
}

// analysis accumulates reasons across the kernel and its transitive
// interpreted callees.
type analysis struct {
	visited map[*ast.FuncLit]bool
	reasons []Reason
	seen    map[string]bool // dedupe key: code@line:detail
}

const maxReasons = 32

func (a *analysis) add(code string, refutes bool, line int, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s@%d:%s", code, line, detail)
	if a.seen == nil {
		a.seen = map[string]bool{}
	}
	if a.seen[key] || len(a.reasons) >= maxReasons {
		return
	}
	a.seen[key] = true
	a.reasons = append(a.reasons, Reason{Code: code, Detail: detail, Line: line, Refutes: refutes})
}

func (a *analysis) report() Report {
	v := Proven
	for _, r := range a.reasons {
		if r.Refutes {
			v = Refuted
			break
		}
		v = Unknown
	}
	return Report{Verdict: v, Reasons: a.reasons}
}

// scope is the per-function analysis context.
type scope struct {
	bound map[string]bool         // lexically bound names (writes allowed)
	fresh map[string]bool         // locals provably holding only fresh allocations
	fns   map[string]*ast.FuncLit // locals provably bound to one kernel-defined function
	res   Resolver
	depth int
}

// analyzeFunc runs both passes over one function: the nondeterminism
// pass (free uses of the clock/RNG/console globals) and the
// write/call/scope pass.
func (a *analysis) analyzeFunc(fn *ast.FuncLit, res Resolver, depth int) {
	if a.visited[fn] {
		return
	}
	a.visited[fn] = true
	a.nondetPass(fn, res)
	sc := scope{
		bound: boundNames(fn, nil),
		fresh: freshLocals(fn),
		fns:   localFuncs(fn),
		res:   res,
		depth: depth,
	}
	// Self-recursion needs no special case: the interpreter does not bind
	// a function's own name inside its body (FuncLit.Name is display
	// only), so a recursive call resolves through the resolver like any
	// other free name and the visited set terminates the walk.
	a.checkNode(fn.Body, sc)
}

// resolveName applies the resolver with the nil-resolver ambient
// fallback.
func resolveName(res Resolver, name string) Callee {
	if res != nil {
		return res(name)
	}
	if Ambient[name] {
		return Callee{Kind: CalleeAmbient}
	}
	return Callee{Kind: CalleeUnknown}
}

// nondetPass reports every free use of a nondeterministic native (see
// eachNondet). Only the prover checks that Math is still the builtin:
// a rebound Math is the user's object, so each of its uses is reported
// as ambient-rebound (Unknown) instead of classified.
func (a *analysis) nondetPass(fn *ast.FuncLit, res Resolver) {
	mathAmbient := resolveName(res, "Math").Kind == CalleeAmbient
	eachNondet(fn, mathAmbient, func(r Reason) {
		a.add(r.Code, r.Refutes, r.Line, "%s", r.Detail)
	})
}

// Nondeterminism returns the first reason fn's result could depend on
// which interpreter runs it ("" when none): the capture plan refuses to
// ship such a kernel to workers, whose clocks, consoles and RNG streams
// are their own. Math counts as the builtin here — the plan checks
// separately that the kernel's Math is the pristine global.
func Nondeterminism(fn *ast.FuncLit) string {
	first := ""
	eachNondet(fn, true, func(r Reason) {
		if first == "" {
			first = r.Detail
		}
	})
	return first
}

// eachNondet calls report, in source order, for every free use in fn
// whose result depends on which interpreter runs it: the virtual clock
// (Date, performance), the console, and Math.random — called directly,
// by a computed key, or through an alias of Math that cannot rule it
// out. Only free uses count: a kernel-local variable shadowing Date or
// Math, even one declared in a nested block, is plain data. When
// mathAmbient is false every free Math use is reported as rebound.
func eachNondet(fn *ast.FuncLit, mathAmbient bool, report func(Reason)) {
	parents := baseParents(fn.Body)
	walkFunc(fn, nil, func(u FreeUse) {
		r := Reason{Code: "nondet-native", Refutes: true, Line: u.Line}
		switch u.Name {
		case "Date", "performance":
			r.Detail = "reads the virtual clock (" + u.Name + "); workers tick independently"
		case "console":
			r.Detail = "writes to the console; output from worker interpreters would be lost"
		case "Math":
			if u.Id == nil {
				return
			}
			if !mathAmbient {
				r = Reason{Code: "ambient-rebound", Line: u.Line,
					Detail: "ambient global Math is shadowed or rebound; its members are not the builtins"}
				break
			}
			switch p := parents[u.Id].(type) {
			case *ast.MemberExpr:
				if p.Name != "random" {
					return
				}
				r.Detail = "calls Math.random; worker RNG streams diverge from sequential execution"
			case *ast.IndexExpr:
				if lit, ok := p.Index.(*ast.StringLit); !ok {
					r = Reason{Code: "computed-math-access", Line: u.Line,
						Detail: "accesses Math by computed key; Math.random cannot be ruled out"}
				} else if lit.Value == "random" {
					r.Detail = "calls Math.random (computed key); worker RNG streams diverge from sequential execution"
				} else {
					return
				}
			default:
				r = Reason{Code: "aliases-math", Line: u.Line,
					Detail: "aliases Math; Math.random cannot be ruled out"}
			}
		default:
			return
		}
		report(r)
	})
}

// baseParents maps identifier nodes used as a member/index base to the
// member/index expression consuming them.
func baseParents(root ast.Node) map[*ast.Ident]ast.Node {
	m := map[*ast.Ident]ast.Node{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.MemberExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				m[id] = x
			}
		case *ast.IndexExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				m[id] = x
			}
		}
		return true
	})
	return m
}

// checkNode is the write/call/scope pass: every assignment target,
// every call shape, every dynamic-scope escape in the subtree.
func (a *analysis) checkNode(root ast.Node, sc scope) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignExpr:
			a.checkWrite(x.L, sc)
		case *ast.UpdateExpr:
			a.checkWrite(x.X, sc)
		case *ast.UnaryExpr:
			if x.Op == token.DELETE {
				a.checkWrite(x.X, sc)
			}
		case *ast.ForInStmt:
			if !x.Declare && !sc.bound[x.Name] {
				a.add("writes-free-var", true, x.Pos().Line,
					"for-in writes captured or global variable %s", x.Name)
			}
		case *ast.CallExpr:
			a.checkCall(x, sc)
		case *ast.NewExpr:
			a.add("constructor-call", false, x.Pos().Line,
				"calls a constructor with new; its effects are not analyzed")
		case *ast.ThisExpr:
			a.add("this-scope", false, x.Pos().Line,
				"references this; the receiver escapes lexical analysis")
		case *ast.FuncLit:
			a.checkNested(x, sc)
			return false
		case *ast.TryStmt:
			a.checkNode(x.Body, sc)
			if x.Catch != nil {
				cb := sc
				cb.bound = cloneSet(sc.bound)
				cb.bound[x.CatchName] = true
				a.checkNode(x.Catch, cb)
			}
			if x.Finally != nil {
				a.checkNode(x.Finally, sc)
			}
			return false
		}
		return true
	})
}

// checkNested descends into a nested function literal with the extended
// scope: outer locals stay writable (closure semantics), outer fresh
// facts survive unless shadowed.
func (a *analysis) checkNested(fn *ast.FuncLit, sc scope) {
	inner := scope{
		bound: boundNames(fn, sc.bound),
		fresh: cloneSet(sc.fresh),
		fns:   map[string]*ast.FuncLit{},
		res:   sc.res,
		depth: sc.depth,
	}
	shadow := boundNames(fn, nil)
	for n := range shadow {
		delete(inner.fresh, n)
	}
	for n, lit := range sc.fns {
		if !shadow[n] {
			inner.fns[n] = lit
		}
	}
	for n, lit := range localFuncs(fn) {
		inner.fns[n] = lit
	}
	for n := range freshLocals(fn) {
		inner.fresh[n] = true
	}
	a.checkNode(fn.Body, inner)
}

// checkWrite classifies one assignment target.
func (a *analysis) checkWrite(l ast.Expr, sc scope) {
	switch t := l.(type) {
	case *ast.Ident:
		if !sc.bound[t.Name] {
			a.add("writes-free-var", true, t.Pos().Line,
				"writes captured or global variable %s", t.Name)
		}
	case *ast.MemberExpr:
		a.checkMemberWrite(t.X, "."+t.Name, t.Pos().Line, sc)
	case *ast.IndexExpr:
		a.checkMemberWrite(t.X, "[...]", t.Pos().Line, sc)
	default:
		a.add("unsupported-write", false, l.Pos().Line,
			"writes through an unsupported target shape")
	}
}

// checkMemberWrite classifies a property/element write by its base.
func (a *analysis) checkMemberWrite(base ast.Expr, what string, line int, sc scope) {
	id, ok := base.(*ast.Ident)
	if !ok {
		a.add("deep-member-write", false, line,
			"writes%s through a computed or chained base; aliasing cannot be ruled out", what)
		return
	}
	switch {
	case !sc.bound[id.Name]:
		a.add("mutates-free-object", true, line,
			"mutates captured or global object %s%s", id.Name, what)
	case sc.fresh[id.Name]:
		// A direct write into an allocation the kernel provably made.
	default:
		a.add("unproven-member-write", false, line,
			"writes %s%s but %s is not provably a fresh allocation", id.Name, what, id.Name)
	}
}

// checkCall classifies one call shape.
func (a *analysis) checkCall(c *ast.CallExpr, sc scope) {
	switch f := c.Fn.(type) {
	case *ast.Ident:
		name := f.Name
		if sc.bound[name] {
			// A kernel-defined function: its body is walked inline at
			// its definition site. A local name we cannot prove holds
			// exactly one kernel function stays Unknown.
			if sc.fns[name] == nil {
				a.add("unresolved-local-callee", false, f.Pos().Line,
					"calls local %s, which is not provably a single kernel-defined function", name)
			}
			return
		}
		callee := resolveName(sc.res, name)
		switch callee.Kind {
		case CalleeAmbient:
			if !ambientPureCall[name] {
				// Date()/console()/Math() are caught by the nondet
				// pass; the rest are shapes we have no proof for.
				if name != "Date" && name != "performance" && name != "console" {
					a.add("ambient-call", false, f.Pos().Line,
						"calls ambient %s, which is not on the pure-call whitelist", name)
				}
			}
		case CalleeFunc:
			if sc.depth >= maxCalleeDepth {
				a.add("deep-call-chain", false, f.Pos().Line,
					"callee chain deeper than %d functions", maxCalleeDepth)
				return
			}
			res := callee.Resolve
			if res == nil {
				res = sc.res
			}
			a.analyzeFunc(callee.Fn, res, sc.depth+1)
		case CalleeData:
			a.add("calls-non-function", false, f.Pos().Line,
				"calls %s, which resolves to data, not a function", name)
		default:
			a.add("unresolved-callee", false, f.Pos().Line,
				"calls %s, which cannot be resolved to an interpreted function", name)
		}
	case *ast.MemberExpr:
		if id, ok := f.X.(*ast.Ident); ok && id.Name == "Math" && !boundLocally(sc, "Math") {
			// Math.sin(...) and friends: pure when Math is still
			// ambient; Math.random and rebound Math are handled by the
			// nondet pass.
			if resolveName(sc.res, "Math").Kind == CalleeAmbient {
				return
			}
		}
		a.add("method-call", false, f.Pos().Line,
			"calls method .%s on an object; receiver mutation cannot be ruled out", f.Name)
	case *ast.IndexExpr:
		// Math["sqrt"](x): the member call in disguise — pure for a
		// literal, deterministic key on ambient Math. The nondet pass
		// already refutes the "random" key and Unknowns computed ones.
		if id, ok := f.X.(*ast.Ident); ok && id.Name == "Math" && !sc.bound["Math"] {
			if lit, ok := f.Index.(*ast.StringLit); ok && lit.Value != "random" &&
				resolveName(sc.res, "Math").Kind == CalleeAmbient {
				return
			}
		}
		a.add("computed-callee", false, c.Pos().Line,
			"calls a computed expression; the callee cannot be resolved")
	case *ast.FuncLit:
		// An IIFE: the literal's body is walked at its node.
	default:
		a.add("computed-callee", false, c.Pos().Line,
			"calls a computed expression; the callee cannot be resolved")
	}
}

func boundLocally(sc scope, name string) bool { return sc.bound[name] }

func cloneSet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		if v {
			out[k] = v
		}
	}
	return out
}

// freshLocals returns fn's own locals that provably hold only fresh
// allocations: non-parameter names whose every assignment anywhere in
// the body (nested closures included, unless the name is shadowed
// there) is an array or object literal. An uninitialized `var a;`
// contributes nothing: a member write before a real assignment throws
// on undefined, which is an effect-free outcome.
func freshLocals(fn *ast.FuncLit) map[string]bool {
	cand := map[string]bool{}
	for _, n := range fn.VarNames {
		cand[n] = true
	}
	for _, p := range fn.Params {
		delete(cand, p)
	}
	kill := func(name string, shadow map[string]bool) {
		if !shadow[name] {
			delete(cand, name)
		}
	}
	var walk func(root ast.Node, shadow map[string]bool)
	walk = func(root ast.Node, shadow map[string]bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.VarDecl:
				for i, name := range x.Names {
					if x.Inits[i] != nil && !isFreshExpr(x.Inits[i]) {
						kill(name, shadow)
					}
				}
			case *ast.FuncDecl:
				// The declaration binds the name to a function value.
				kill(x.Name, shadow)
			case *ast.AssignExpr:
				if id, ok := x.L.(*ast.Ident); ok {
					if x.Op != token.ASSIGN || !isFreshExpr(x.R) {
						kill(id.Name, shadow)
					}
				}
			case *ast.UpdateExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					kill(id.Name, shadow)
				}
			case *ast.ForInStmt:
				kill(x.Name, shadow)
			case *ast.FuncLit:
				walk(x.Body, boundNames(x, shadow))
				return false
			}
			return true
		})
	}
	walk(fn.Body, map[string]bool{})
	return cand
}

// isFreshExpr reports whether e provably evaluates to an allocation the
// kernel owns.
func isFreshExpr(e ast.Expr) bool {
	switch e.(type) {
	case *ast.ArrayLit, *ast.ObjectLit:
		return true
	}
	return false
}

// localFuncs maps local names provably bound to exactly one
// kernel-defined function: inner function declarations and
// `var f = function ...` initializers, dropped again if the name is
// ever reassigned.
func localFuncs(fn *ast.FuncLit) map[string]*ast.FuncLit {
	out := map[string]*ast.FuncLit{}
	dead := map[string]bool{}
	note := func(name string, lit *ast.FuncLit) {
		if _, dup := out[name]; dup || dead[name] {
			delete(out, name)
			dead[name] = true
			return
		}
		out[name] = lit
	}
	reassign := func(name string) {
		delete(out, name)
		dead[name] = true
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			note(x.Name, x.Fn)
			return false // the body is walked by the checker, not here
		case *ast.VarDecl:
			for i, name := range x.Names {
				if lit, ok := x.Inits[i].(*ast.FuncLit); ok {
					note(name, lit)
				} else if x.Inits[i] != nil {
					reassign(name)
				}
			}
		case *ast.AssignExpr:
			if id, ok := x.L.(*ast.Ident); ok {
				reassign(id.Name)
			}
		case *ast.UpdateExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				reassign(id.Name)
			}
		case *ast.FuncLit:
			return false // nested scopes keep their own function maps
		}
		return true
	})
	return out
}
