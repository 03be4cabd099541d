package core

import (
	"fmt"
	"slices"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
)

// printWarnings runs src under the dependence analysis, prints each
// warning in the paper's notation and returns the warnings' kind and
// name.
func printWarnings(label, src string) []string {
	prog, err := interp.Load(src)
	if err != nil {
		panic(err)
	}
	in := interp.New()
	dep := NewDepAnalyzer(ast.NoLoop)
	in.SetHooks(dep)
	if err := in.Run(prog); err != nil {
		panic(err)
	}
	fmt.Println(label)
	var names []string
	for _, w := range dep.Warnings() {
		if w.Kind == WarnRecursion {
			continue
		}
		names = append(names, w.Kind.String()+" "+w.Name)
		fmt.Printf("  %-10s %-14s %s\n", w.Kind, w.Name, w.Char.Format(prog.Loops))
	}
	return names
}

// ExampleDepAnalyzer analyzes the paper's Fig. 6 N-body step and its
// §3.3 rewrite, which moves the update loop's body into a function so
// that p is bound once per iteration. The rewrite removes exactly the
// five writes to p and its fields, artifacts of JavaScript's
// function-scoped var. The com accumulator's warnings stay, since they
// are the loop's real sequential dependence, and so do the reads of p's
// fields that one step makes of the values the previous step wrote.
//
// The rewrite keeps the for loop and calls the body as an immediately
// invoked function. Written as a native bodies.forEach(callback) it
// would lose the com warnings too: a native forEach is not a loop to
// the analysis, so the dependence it carries is not seen at all.
func ExampleDepAnalyzer() {
	plain := printWarnings("plain for loop (Fig. 6):", nbodySrc)
	rewritten := printWarnings("loop body in a function (§3.3):", nbodyForEachSrc)
	fmt.Println("removed by the rewrite:")
	for _, name := range plain {
		if !slices.Contains(rewritten, name) {
			fmt.Println("  -", name)
		}
	}
	// Output:
	// plain for loop (Fig. 6):
	//   var-write  b              while(line 28) ok ok → for(line 6) ok dependence
	//   var-write  com            while(line 28) ok dependence
	//   var-write  p              while(line 28) ok ok → for(line 15) ok dependence
	//   var-write  steps          while(line 28) ok dependence
	//   prop-write <Array>[elem]  for(line 4) ok dependence
	//   prop-write b.fX           while(line 28) ok ok → for(line 6) ok dependence
	//   prop-write b.fY           while(line 28) ok ok → for(line 6) ok dependence
	//   prop-write com.m          while(line 28) ok ok → for(line 15) ok dependence
	//   prop-write com.x          while(line 28) ok ok → for(line 15) ok dependence
	//   prop-write com.y          while(line 28) ok ok → for(line 15) ok dependence
	//   prop-write p.vX           while(line 28) ok ok → for(line 15) ok dependence
	//   prop-write p.vY           while(line 28) ok ok → for(line 15) ok dependence
	//   prop-write p.x            while(line 28) ok ok → for(line 15) ok dependence
	//   prop-write p.y            while(line 28) ok ok → for(line 15) ok dependence
	//   flow-read  com            while(line 28) ok ok → for(line 15) ok dependence
	//   flow-read  com.m          while(line 28) ok ok → for(line 15) ok dependence
	//   flow-read  com.x          while(line 28) ok ok → for(line 15) ok dependence
	//   flow-read  com.y          while(line 28) ok ok → for(line 15) ok dependence
	//   flow-read  p.vX           while(line 28) ok dependence → for(line 15) dependence dependence
	//   flow-read  p.vY           while(line 28) ok dependence → for(line 15) dependence dependence
	//   flow-read  p.x            while(line 28) ok dependence → for(line 15) dependence dependence
	//   flow-read  p.y            while(line 28) ok dependence → for(line 15) dependence dependence
	//   flow-read  steps          while(line 28) ok dependence
	// loop body in a function (§3.3):
	//   var-write  b              while(line 29) ok ok → for(line 6) ok dependence
	//   var-write  com            while(line 29) ok dependence
	//   var-write  steps          while(line 29) ok dependence
	//   prop-write <Array>[elem]  for(line 4) ok dependence
	//   prop-write b.fX           while(line 29) ok ok → for(line 6) ok dependence
	//   prop-write b.fY           while(line 29) ok ok → for(line 6) ok dependence
	//   prop-write com.m          while(line 29) ok ok → for(line 15) ok dependence
	//   prop-write com.x          while(line 29) ok ok → for(line 15) ok dependence
	//   prop-write com.y          while(line 29) ok ok → for(line 15) ok dependence
	//   flow-read  com            while(line 29) ok ok → for(line 15) ok dependence
	//   flow-read  com.m          while(line 29) ok ok → for(line 15) ok dependence
	//   flow-read  com.x          while(line 29) ok ok → for(line 15) ok dependence
	//   flow-read  com.y          while(line 29) ok ok → for(line 15) ok dependence
	//   flow-read  p.vX           while(line 29) ok dependence → for(line 15) dependence dependence
	//   flow-read  p.vY           while(line 29) ok dependence → for(line 15) dependence dependence
	//   flow-read  p.x            while(line 29) ok dependence → for(line 15) dependence dependence
	//   flow-read  p.y            while(line 29) ok dependence → for(line 15) dependence dependence
	//   flow-read  steps          while(line 29) ok dependence
	// removed by the rewrite:
	//   - var-write p
	//   - prop-write p.vX
	//   - prop-write p.vY
	//   - prop-write p.x
	//   - prop-write p.y
}
