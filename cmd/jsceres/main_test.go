package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// script has a loop-carried dependence (s) the deps mode reports.
const script = `
var a = [];
for (var i = 0; i < 10; i++) { a[i] = i * 2; }
var s = 0;
for (var j = 0; j < 10; j++) { s = s + a[j]; }
`

// TestRun drives the command in-process: each analysis mode on an app
// and on a standalone file, and the command lines it must refuse before
// printing anything.
func TestRun(t *testing.T) {
	defer workloads.SetScale(workloads.FullScale)
	file := filepath.Join(t.TempDir(), "app.js")
	if err := os.WriteFile(file, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	ok := []struct {
		args []string
		want string
	}{
		{[]string{"-app", "fluidSim", "-mode", "light", "-scale", "16"}, "fluidSim — lightweight profiling"},
		{[]string{"-app", "Tear-able Cloth", "-mode", "deps", "-scale", "16"}, "dependence warnings"},
		{[]string{"-file", file, "-mode", "light"}, "in loops"},
		{[]string{"-file", file, "-mode", "loops"}, "instances"},
		{[]string{"-file", file, "-mode", "deps"}, "x] "},
	}
	for _, c := range ok {
		t.Run(strings.ReplaceAll(strings.Join(c.args, " "), file, "app.js"), func(t *testing.T) {
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
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%q: run succeeded, want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed to stdout:\n%s", args, &stdout)
		}
	}
}
