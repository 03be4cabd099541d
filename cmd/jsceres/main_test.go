package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// script has a loop-carried dependence (s) the deps mode reports.
const script = `
var a = [];
for (var i = 0; i < 10; i++) { a[i] = i * 2; }
var s = 0;
for (var j = 0; j < 10; j++) { s = s + a[j]; }
`

// oneCall runs a call-free loop of 200ms virtual time inside one call:
// the sampler sees two call boundaries and credits one window, 5ms.
const oneCall = `
function monolith() {
  var s = 0;
  for (var i = 0; i < 20000; i++) { s += i % 7; }
  return s;
}
monolith();
`

// badLength asks for an array of length -1: a JS RangeError, which the
// command reports as an error, not a Go panic.
const badLength = `var n = -1;
var a = Array(n);
console.log(a.length);
`

// TestRun drives the command in-process: each analysis mode on an app
// and on a standalone file, and the command lines and scripts it must
// refuse before printing anything.
func TestRun(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	file, callFile, badFile := filepath.Join(dir, "app.js"), filepath.Join(dir, "call.js"), filepath.Join(dir, "bad.js")
	for path, src := range map[string]string{file: script, callFile: oneCall, badFile: badLength} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ok := []struct {
		args []string
		want string
	}{
		{[]string{"-app", "fluidSim", "-mode", "light", "-scale", "16"}, "fluidSim — lightweight profiling"},
		{[]string{"-app", "Tear-able Cloth", "-mode", "deps", "-scale", "16"}, "dependence warnings"},
		{[]string{"-file", file, "-mode", "light"}, "in loops"},
		// The same 5ms window as -app … -mode light and Table 2.
		{[]string{"-file", callFile, "-mode", "light"}, "active 0.005 s"},
		{[]string{"-file", file, "-mode", "loops"}, "instances"},
		{[]string{"-file", file, "-mode", "deps"}, "x] "},
	}
	for _, c := range ok {
		t.Run(strings.ReplaceAll(strings.Join(c.args, " "), dir+string(filepath.Separator), ""), func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			if err := run(c.args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstderr:\n%s", err, &stderr)
			}
			if !strings.Contains(stdout.String(), c.want) {
				t.Errorf("output does not contain %q:\n%s", c.want, &stdout)
			}
		})
	}
	for _, args := range [][]string{
		{"-app", "fluidSim", "-mode", "nope"},
		{"-mode", "light"},
		{"-app", "no such app"},
		{"-app", "fluidSim", "-scale", "0"},
		{"-file", file, "-scale", "-4"},
		{"-file", file, "-scale", "8"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%q: run succeeded, want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed to stdout:\n%s", args, &stdout)
		}
	}
	for _, mode := range []string{"light", "loops", "deps"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-file", badFile, "-mode", mode}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "RangeError") {
			t.Errorf("-mode %s on Array(-1): error %v, want a RangeError", mode, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-mode %s on Array(-1): printed to stdout:\n%s", mode, &stdout)
		}
	}
}
