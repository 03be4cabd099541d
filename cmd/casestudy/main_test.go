package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestExecLadders runs the three ModeExec ladders at two workers. Under
// go test -race this is the soundness net for the speculative engine,
// the assist mode's guard-free dispatch and the pipeline's shared out
// slice. run itself fails when a row's output differs across worker
// counts or strategies; the summary line must count every kernel as
// dispatched (a pipeline that never dispatched streams 0 batches).
func TestExecLadders(t *testing.T) {
	defer workloads.SetScale(workloads.FullScale)
	cases := []struct {
		args []string
		want *regexp.Regexp
	}{
		{[]string{"-exec", "-workers", "2", "-scale", "8"},
			regexp.MustCompile(`(?m)^8/8 convertible loops executed in parallel`)},
		{[]string{"-exec", "-workers", "2", "-scale", "8", "-static=assist"},
			regexp.MustCompile(`(?m)^8/8 convertible loops executed in parallel`)},
		{[]string{"-exec", "-pipeline", "-workers", "2", "-scale", "8"},
			regexp.MustCompile(`(?m)^3-stage pipeline streamed [1-9]\d* batches`)},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(c.args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
			}
			if !c.want.Match(stdout.Bytes()) {
				t.Errorf("output does not match %q:\n%s", c.want, &stdout)
			}
		})
	}
}

// TestFlagErrors holds that a contradictory command line fails before
// anything is printed.
func TestFlagErrors(t *testing.T) {
	defer workloads.SetScale(workloads.FullScale)
	for _, args := range [][]string{
		{"-table=5"},
		{"-pipeline"},
		{"-exec", "-table=2"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%q: run succeeded, want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed to stdout:\n%s", args, &stdout)
		}
	}
}
