package effects

// Free-variable analysis over the JS subset, factored out of
// internal/autopar's capture machinery so the runtime capture plan and
// the static purity prover agree on one binding model:
//
//   - a function binds its parameters, every hoisted `var` and inner
//     function declaration (ast.FuncLit.VarNames — the parser hoists
//     nested-block declarations to function scope), and `arguments`.
//     A named function *expression* does NOT bind its own name: the
//     interpreter stores FuncLit.Name for display only, so a self-call
//     through that name resolves through the enclosing scope chain —
//     treating it as bound here would hide a genuinely free variable
//     from both the capture plan and the purity prover. (Function
//     *declarations* are covered by the enclosing VarNames.);
//   - a catch clause binds its exception name for the clause body only;
//   - `for (k in obj)` without `var` references k as a variable even
//     though no Ident node exists for it — the walk reports it as a
//     free *write* when unbound (the pre-factor walk silently missed
//     it);
//   - nested function literals recurse with the extended bound set.
//
// Everything else an Ident can name resolves lexically; an identifier
// not bound by any enclosing function in the walk is free — captured
// from the defining closure environment or global scope.

import (
	"sort"

	"repro/internal/js/ast"
)

// FreeUse is one occurrence of a free variable in a function body. Id
// is the referencing identifier node, or nil for uses with no Ident of
// their own (an undeclared `for (k in ...)` loop variable).
type FreeUse struct {
	Name string
	Id   *ast.Ident
	Line int
}

// FreeNames returns the names fn references but does not bind, sorted
// for deterministic plans.
func FreeNames(fn *ast.FuncLit) []string {
	seen := make(map[string]bool)
	var out []string
	walkFunc(fn, nil, func(u FreeUse) {
		if !seen[u.Name] {
			seen[u.Name] = true
			out = append(out, u.Name)
		}
	})
	sort.Strings(out)
	return out
}

// boundNames builds fn's bound-name set on top of the enclosing one.
func boundNames(fn *ast.FuncLit, outer map[string]bool) map[string]bool {
	bound := make(map[string]bool, len(outer)+len(fn.Params)+len(fn.VarNames)+2)
	for n := range outer {
		bound[n] = true
	}
	for _, n := range fn.Params {
		bound[n] = true
	}
	for _, n := range fn.VarNames {
		bound[n] = true
	}
	bound["arguments"] = true
	return bound
}

// walkFunc walks fn's body with the enclosing bound-name set, calling
// onFree for each free occurrence.
func walkFunc(fn *ast.FuncLit, outer map[string]bool, onFree func(FreeUse)) {
	walkNode(fn.Body, boundNames(fn, outer), onFree)
}

// walkNode scans one statement subtree. Nested function literals
// recurse with an extended bound set; catch clauses bind their
// exception name for the clause body only.
func walkNode(root ast.Node, bound map[string]bool, onFree func(FreeUse)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if !bound[x.Name] {
				onFree(FreeUse{Name: x.Name, Id: x, Line: x.Pos().Line})
			}
		case *ast.ForInStmt:
			// `for (k in obj)` with no var: the loop assigns k as a
			// plain variable reference, but the AST carries only the
			// name. Declared names are hoisted into VarNames already.
			if !x.Declare && !bound[x.Name] {
				onFree(FreeUse{Name: x.Name, Line: x.Pos().Line})
			}
		case *ast.FuncLit:
			walkFunc(x, bound, onFree)
			return false
		case *ast.TryStmt:
			walkNode(x.Body, bound, onFree)
			if x.Catch != nil {
				cb := make(map[string]bool, len(bound)+1)
				for n := range bound {
					cb[n] = true
				}
				cb[x.CatchName] = true
				walkNode(x.Catch, cb, onFree)
			}
			if x.Finally != nil {
				walkNode(x.Finally, bound, onFree)
			}
			return false
		}
		return true
	})
}
