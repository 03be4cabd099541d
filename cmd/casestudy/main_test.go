package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestExecLadders runs the ModeExec ladder at two workers, with the
// prover off and in assist mode. Under go test -race this is the
// soundness net for the speculative engine, the assist mode's
// guard-free dispatch and the pipeline row's shared out slice, which
// dispatches in both modes. run itself fails when a row's output
// differs across worker counts or strategies, or the pipeline's pairs
// mismatch; the summary line must count every kernel as dispatched. It
// runs serially, as its table is wall-clock measurements.
func TestExecLadders(t *testing.T) {
	summary := regexp.MustCompile(`(?m)^9/9 convertible loops executed in parallel`)
	// The pipeline row: three stages, fused/chain ms cells, pairs 3/3.
	pipeRow := regexp.MustCompile(`(?m)^\s*CamanJS\s+decode/filter/encode pixel pipeline\s+\d+\s+3\s+\d+\.\d/\d+\.\d\s+\d+\.\d/\d+\.\d\s.*\s3/3\s+yes\s+yes\s`)
	for _, args := range [][]string{
		{"-exec", "-workers", "2", "-scale", "8"},
		{"-exec", "-workers", "2", "-scale", "8", "-static=assist"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
			}
			for _, want := range []*regexp.Regexp{summary, pipeRow} {
				if !want.Match(stdout.Bytes()) {
					t.Errorf("output does not match %q:\n%s", want, &stdout)
				}
			}
		})
	}
}

// TestSurveyTable runs -table=survey: the four §2 figures in order and
// the three summary lines, from the published corpus whatever -seed
// says.
func TestSurveyTable(t *testing.T) {
	t.Parallel()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-table=survey"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, &stderr)
	}
	want := regexp.MustCompile(`(?s)^Figure 1\. .*\nFigure 2\. .*\nFigure 3\. .*\nFigure 4\. .*` +
		`\ninter-rater agreement \(Jaccard, 20% of data\): \d+% \(paper: >80%\)` +
		`\nprefer high-level array operators over loops: \d+/\d+ = \d+% \(paper: 74%\)` +
		`\nglobals question \(§2\.4\): \d+ answered; [^\n]*\n$`)
	if !want.Match(stdout.Bytes()) {
		t.Errorf("output does not match %q:\n%s", want, &stdout)
	}
	var reseeded bytes.Buffer
	if err := run([]string{"-table=survey", "-seed=9"}, &reseeded, &stderr); err != nil {
		t.Fatalf("run -seed=9: %v", err)
	}
	if !bytes.Equal(reseeded.Bytes(), stdout.Bytes()) {
		t.Error("-seed changed the survey output; it is always survey.CorpusSeed")
	}
}

// TestFlagErrors holds that a contradictory command line fails before
// anything is printed.
func TestFlagErrors(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-table=5"},
		{"-pipeline"},
		{"-exec", "-pipeline"},
		{"-exec", "-table=2"},
		{"-exec", "-table=survey"},
		{"-timing", "-table=1"},
		{"-timing", "-table=fortuna"},
		{"-timing", "-table=survey"},
		{"-exec", "-timing"},
		{"-scale=0"},
		{"-scale=-3", "-table=2"},
		{"-exec", "-scale=0"},
		{"-scale=8", "-table=1"},
		{"-scale=8", "-table=survey"},
		{"-exec", "-static=bogus"},
		{"-table=1", "-static=bogus"},
		{"-static=assist"},
		{"-table=2", "-static=off"},
		{"-table=1", "-workers", "-3"},
		{"-table=1", "-workers", "2"},
		{"-table=fortuna", "-workers", "2"},
		{"-table=survey", "-workers", "2"},
		{"-table=fortuna", "-workers", "0"},
		{"-exec", "-workers", "-1"},
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
