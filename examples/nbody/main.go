// Command nbody contrasts the two variants of the paper's §3.3 example: the plain
// for-loop N-body step and the forEach-style rewrite. Extracting the loop
// body into a function privatizes the function-scoped `p`, so JS-CERES
// drops the p.* warnings; the com.* accumulation warnings survive in both.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/js/ast"
	"repro/internal/js/interp"
)

const common = `var bodies = [];
function Particle() { this.x = 0; this.y = 0; this.vX = 0; this.vY = 0; this.fX = 0; this.fY = 0; this.m = 1; }
var dT = 0.01;
for (var s = 0; s < 24; s++) { bodies.push(new Particle()); }
function computeForces() {
  for (var i = 0; i < bodies.length; i++) {
    var b = bodies[i];
    b.fX = 0.001 * (i % 3 - 1);
    b.fY = 0.001 * (i % 5 - 2);
  }
}
`

const plainLoop = common + `
function step() {
  computeForces();
  var com = new Particle();
  for (var i = 0; i < bodies.length; i++) {
    var p = bodies[i];
    p.vX += p.fX / p.m * dT;
    p.vY += p.fY / p.m * dT;
    p.x += p.vX * dT;
    p.y += p.vY * dT;
    com.m = com.m + p.m;
    com.x = (com.x * (com.m - p.m) + p.x * p.m) / com.m;
    com.y = (com.y * (com.m - p.m) + p.y * p.m) / com.m;
  }
  return com;
}
var steps = 0;
while (steps < 6) { var com = step(); steps++; }
`

const forEachStyle = common + `
function step() {
  computeForces();
  var com = new Particle();
  bodies.forEach(function (p) {
    p.vX += p.fX / p.m * dT;
    p.vY += p.fY / p.m * dT;
    p.x += p.vX * dT;
    p.y += p.vY * dT;
    com.m = com.m + p.m;
    com.x = (com.x * (com.m - p.m) + p.x * p.m) / com.m;
    com.y = (com.y * (com.m - p.m) + p.y * p.m) / com.m;
  });
  return com;
}
var steps = 0;
while (steps < 6) { var com = step(); steps++; }
`

func analyze(label, src string) map[string]bool {
	prog, err := interp.Load(src)
	if err != nil {
		log.Fatal(err)
	}
	in := interp.New()
	dep := core.NewDepAnalyzer(ast.NoLoop)
	in.SetHooks(dep)
	if err := in.Run(prog); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== %s ===\n", label)
	names := map[string]bool{}
	for _, w := range dep.Warnings() {
		if w.Kind == core.WarnRecursion {
			continue
		}
		names[w.Kind.String()+" "+w.Name] = true
		fmt.Printf("  %-10s %-8s %s\n", w.Kind, w.Name, w.Char.Format(prog.Loops))
	}
	fmt.Println()
	return names
}

func main() {
	plain := analyze("plain for-loop (Fig. 6)", plainLoop)
	foreach := analyze("forEach variant (§3.3)", forEachStyle)

	fmt.Println("=== difference (warnings the rewrite removed) ===")
	var removed []string
	for name := range plain {
		if !foreach[name] {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Println("  -", name)
	}
	if len(removed) == 0 {
		fmt.Println("  (none)")
	}
	fmt.Println()
	fmt.Println("The paper's point: the p.* warnings were artifacts of JavaScript's")
	fmt.Println("function-scoped var; restructuring in functional style removes them,")
	fmt.Println("leaving only the real sequential dependence (the com accumulator).")
}
