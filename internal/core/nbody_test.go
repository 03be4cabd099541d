package core

import (
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/interp"
	"repro/internal/js/parser"
)

// nbodySrc is the paper's Fig. 6 N-body step, reproduced with a bounded
// driver loop. Line numbers matter: the for loop of interest must be
// identifiable, and the while loop encloses it dynamically.
const nbodySrc = `var bodies = [];
function Particle() { this.x = 0; this.y = 0; this.vX = 0; this.vY = 0; this.fX = 0; this.fY = 0; this.m = 1; }
var dT = 0.01;
for (var s = 0; s < 16; s++) { bodies.push(new Particle()); }
function computeForces() {
  for (var i = 0; i < bodies.length; i++) {
    var b = bodies[i];
    b.fX = 0.001 * (i % 3 - 1);
    b.fY = 0.001 * (i % 5 - 2);
  }
}
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
while (steps < 4) {
  var com = step();
  steps++;
}
`

// nbodyForEachSrc is the §3.3 variant: the body of the update loop is
// extracted into a callback, making p a per-iteration binding.
const nbodyForEachSrc = `var bodies = [];
function Particle() { this.x = 0; this.y = 0; this.vX = 0; this.vY = 0; this.fX = 0; this.fY = 0; this.m = 1; }
var dT = 0.01;
for (var s = 0; s < 16; s++) { bodies.push(new Particle()); }
function computeForces() {
  for (var i = 0; i < bodies.length; i++) {
    var b = bodies[i];
    b.fX = 0.001 * (i % 3 - 1);
    b.fY = 0.001 * (i % 5 - 2);
  }
}
function step() {
  var com = new Particle();
  computeForces();
  for (var i = 0; i < bodies.length; i++) {
    (function (p) {
      p.vX += p.fX / p.m * dT;
      p.vY += p.fY / p.m * dT;
      p.x += p.vX * dT;
      p.y += p.vY * dT;
      com.m = com.m + p.m;
      com.x = (com.x * (com.m - p.m) + p.x * p.m) / com.m;
      com.y = (com.y * (com.m - p.m) + p.y * p.m) / com.m;
    })(bodies[i]);
  }
  return com;
}
var steps = 0;
while (steps < 4) {
  var com = step();
  steps++;
}
`

// analyzeNBody runs a source under full dependence analysis and returns
// the analyzer plus loop identities.
func analyzeNBody(t *testing.T, src string) (*DepAnalyzer, *ast.Program, ast.LoopID, ast.LoopID) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := interp.New()
	d := NewDepAnalyzer(ast.NoLoop)
	in.SetHooks(d)
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	var whileID, updateForID ast.LoopID
	for _, li := range prog.Loops {
		if li.Kind == "while" {
			whileID = li.ID
		}
	}
	// The update loop is the for loop inside step(); it is the third
	// C-style for (after the seeding loop and computeForces' loop) in the
	// plain variant and in the forEach variant alike.
	var fors []ast.LoopInfo
	for _, li := range prog.Loops {
		if li.Kind == "for" {
			fors = append(fors, li)
		}
	}
	if len(fors) < 3 {
		t.Fatalf("expected >=3 for loops, got %d", len(fors))
	}
	updateForID = fors[2].ID
	if whileID == 0 {
		t.Fatalf("while loop not found")
	}
	return d, prog, whileID, updateForID
}

func findWarning(d *DepAnalyzer, kind WarnKind, name string) *Warning {
	for _, w := range d.Warnings() {
		if w.Kind == kind && w.Name == name {
			return w
		}
	}
	return nil
}

// charAt returns the level characterization for a loop, or nil.
func charAt(c Characterization, id ast.LoopID) *LevelChar {
	for i := range c {
		if c[i].Loop == id {
			return &c[i]
		}
	}
	return nil
}

func TestNBodyWarningWriteToP(t *testing.T) {
	d, _, whileID, forID := analyzeNBody(t, nbodySrc)
	w := findWarning(d, WarnVarWrite, "p")
	if w == nil {
		t.Fatalf("no var-write warning for p; warnings: %v", warningNames(d))
	}
	// while(line ..) ok ok → for(line ..) ok dependence
	lw := charAt(w.Char, whileID)
	lf := charAt(w.Char, forID)
	if lw == nil || lf == nil {
		t.Fatalf("char %v missing while/for levels", w.Char)
	}
	if !lw.InstanceOK || !lw.IterationOK {
		t.Errorf("while level = %+v, want ok ok", *lw)
	}
	if !lf.InstanceOK || lf.IterationOK {
		t.Errorf("for level = %+v, want ok dependence", *lf)
	}
}

func TestNBodyWarningWritesToPropertiesOfP(t *testing.T) {
	d, _, whileID, forID := analyzeNBody(t, nbodySrc)
	for _, name := range []string{"p.vX", "p.vY", "p.x", "p.y"} {
		w := findWarning(d, WarnPropWrite, name)
		if w == nil {
			t.Fatalf("no prop-write warning for %s; warnings: %v", name, warningNames(d))
		}
		lw, lf := charAt(w.Char, whileID), charAt(w.Char, forID)
		if lw == nil || lf == nil {
			t.Fatalf("%s: char %v missing levels", name, w.Char)
		}
		if !lw.InstanceOK || !lw.IterationOK {
			t.Errorf("%s while level = %+v, want ok ok", name, *lw)
		}
		if !lf.InstanceOK || lf.IterationOK {
			t.Errorf("%s for level = %+v, want ok dependence", name, *lf)
		}
	}
}

func TestNBodyWarningWritesToCom(t *testing.T) {
	d, _, whileID, forID := analyzeNBody(t, nbodySrc)
	for _, name := range []string{"com.m", "com.x", "com.y"} {
		w := findWarning(d, WarnPropWrite, name)
		if w == nil {
			t.Fatalf("no prop-write warning for %s; warnings: %v", name, warningNames(d))
		}
		lw, lf := charAt(w.Char, whileID), charAt(w.Char, forID)
		if !lw.InstanceOK || !lw.IterationOK {
			t.Errorf("%s while level = %+v, want ok ok", name, *lw)
		}
		if !lf.InstanceOK || lf.IterationOK {
			t.Errorf("%s for level = %+v, want ok dependence", name, *lf)
		}
	}
}

func TestNBodyFlowReadsOfCom(t *testing.T) {
	d, _, _, forID := analyzeNBody(t, nbodySrc)
	for _, name := range []string{"com.m", "com.x", "com.y"} {
		w := findWarning(d, WarnFlowRead, name)
		if w == nil {
			t.Fatalf("no flow-read warning for %s; warnings: %v", name, warningNames(d))
		}
		lf := charAt(w.Char, forID)
		if lf == nil || !lf.InstanceOK || lf.IterationOK {
			t.Errorf("%s for level = %v, want ok dependence", name, w.Char)
		}
	}
	// The flow dependence lands in the for loop's summary: the center-of-
	// mass accumulation makes the loop truly sequential as written.
	sum := d.Summary(forID)
	if sum == nil || len(sum.FlowReads) == 0 {
		t.Fatalf("no flow reads recorded for the update loop")
	}
}

// dependsAt reports whether c shows an inter-iteration or
// inter-instance dependence at loop.
func dependsAt(c Characterization, loop ast.LoopID) bool {
	for _, l := range c {
		if l.Loop == loop {
			return !l.InstanceOK || !l.IterationOK
		}
	}
	return false
}

func TestNBodyForEachVariantDropsPWarnings(t *testing.T) {
	// §3.3: extracting the body into a function makes the p.* accesses
	// private per iteration; the com warnings stand.
	d, _, _, forID := analyzeNBody(t, nbodyForEachSrc)
	for _, name := range []string{"p.vX", "p.vY", "p.x", "p.y"} {
		if w := findWarning(d, WarnPropWrite, name); w != nil {
			if !dependsAt(w.Char, forID) {
				continue // characterized clean at the loop of interest
			}
			t.Errorf("forEach variant still warns on %s: %v", name, w.Char)
		}
	}
	found := false
	for _, name := range []string{"com.m", "com.x", "com.y"} {
		if w := findWarning(d, WarnPropWrite, name); w != nil && dependsAt(w.Char, forID) {
			found = true
		}
	}
	if !found {
		t.Errorf("forEach variant lost the com warnings; warnings: %v", warningNames(d))
	}
}

func TestNBodyNoPolymorphicVars(t *testing.T) {
	d, _, _, _ := analyzeNBody(t, nbodySrc)
	if vars := d.PolymorphicVars(); len(vars) != 0 {
		t.Errorf("unexpected polymorphic vars: %v", vars)
	}
}

func TestNBodyWarningFormatMatchesPaperNotation(t *testing.T) {
	d, prog, _, _ := analyzeNBody(t, nbodySrc)
	w := findWarning(d, WarnVarWrite, "p")
	if w == nil {
		t.Fatal("missing warning for p")
	}
	s := w.Format(prog.Loops)
	if !strings.Contains(s, "while(line") || !strings.Contains(s, "for(line") {
		t.Errorf("format %q lacks loop labels", s)
	}
	if !strings.Contains(s, "ok ok") || !strings.Contains(s, "ok dependence") {
		t.Errorf("format %q lacks ok/dependence flags", s)
	}
}

func TestNBodyInductionVariableExempt(t *testing.T) {
	d, _, _, forID := analyzeNBody(t, nbodySrc)
	if w := findWarning(d, WarnVarWrite, "i"); w != nil && dependsAt(w.Char, forID) {
		t.Errorf("induction variable i reported: %v", w.Char)
	}
}

func warningNames(d *DepAnalyzer) []string {
	var out []string
	for _, w := range d.Warnings() {
		out = append(out, w.Kind.String()+":"+w.Name)
	}
	return out
}
