package main

import (
	"math"
	"time"
)

// Round sizes at --seconds 10 (scale 1), chosen so that a round takes
// 1.5-2 s on the 2-core reference box; every other --seconds scales
// them linearly. They are frozen: changing one changes what every
// recorded number means.
const (
	missRequests     = 1200  // never-seen ~30 KB bundles
	hotRequests      = 30000 // 98 % from a resident pool of 64 small sources
	fleetRequests    = 16000 // 75 % hot, over three nodes
	priorityRequests = 400   // never-seen bundles beside back-to-back prewarm batches
	studyDivAt1      = 16    // workloads.Scale.Div of a study pass
)

// studyDiv sizes a study pass: its time falls with Div, though not
// linearly, and stops falling near Div 32.
func studyDiv(cfg runConfig) int {
	return min(64, max(1, int(math.Round(studyDivAt1/cfg.scale))))
}

// workloadDefs lists the six workloads in BENCHMARK.json order; the
// reason each exists is in BENCHMARK.json and README.md.
var workloadDefs = []workloadDef{
	{"study_analyze", setupStudy},
	{"exec", setupExec},
	{"serve_miss", setupServe(serveShape{
		nodes: 1, depthPerW: 8, requests: missRequests, bundles: true})},
	{"serve_hot", setupServe(serveShape{
		nodes: 1, depthPerW: 8, requests: hotRequests, hotShare: 0.98})},
	{"serve_fleet", setupServe(serveShape{
		nodes: 3, depthPerW: 8, requests: fleetRequests, hotShare: 0.75})},
	{"serve_priority", setupServe(serveShape{
		nodes: 1, depthPerW: 4, batchMaxWait: 500 * time.Millisecond,
		requests: priorityRequests, bundles: true, batchWriters: true})},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}
