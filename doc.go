// Package repro reproduces "Are web applications ready for parallelism?"
// (Radoi, Herhut, Sreeram, Dig — PPoPP 2015) as a Go library.
//
// The paper's tool, JS-CERES, profiles JavaScript web applications and
// runs a dynamic dependence analysis over their loops to find latent data
// parallelism. This repository rebuilds the entire stack from scratch:
//
//   - internal/js/...    a JavaScript-subset engine (lexer, parser,
//     compile-to-closures interpreter) with first-class instrumentation
//     hooks;
//   - internal/browser   the simulated DOM, canvas and event loop;
//   - internal/core      JS-CERES itself: the three staged analysis modes
//     of §3 and the Table 3 classifier;
//   - internal/gecko     the sampling profiler whose "Active" column
//     undercounts single-function loops (§3.1);
//   - internal/workloads the 12 case-study applications of Table 1;
//   - internal/study     the Table 2/3 pipelines, Amdahl bounds, the
//     concurrent (workload × mode) study orchestrator and the Fortuna et
//     al. task-level baseline (§6);
//   - internal/survey    the §2 developer survey (Figures 1–4);
//   - internal/parallel  goroutine execution of analysis-approved loops:
//     the share-nothing worker and the River Trail map (reduce and
//     filter run on internal/autopar);
//   - internal/autopar   the speculate-then-verify engine behind the
//     in-language ParallelArray (§5.1/§5.3);
//   - internal/instrument + internal/proxy  the Fig. 5 source-rewriting
//     HTTP proxy.
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured comparisons. The benchmarks in
// bench_test.go regenerate every table and figure.
package repro
